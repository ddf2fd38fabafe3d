(* CSR (compressed sparse row) chain storage.

   Row [i] occupies the index range [row_start.(i), row_start.(i+1))
   of the flat [cols]/[probs] arrays; [cols] is strictly increasing
   within each row (guaranteed by [normalize_row], which sums
   duplicates and drops zeros). [cum] holds the per-row running prefix
   sums of [probs] in the same left-to-right order the old linear-scan
   sampler accumulated them, so the binary-search sampler picks exactly
   the same entry for the same uniform draw. *)

(* Transposed (CSC) view, derived lazily from the CSR arrays the first
   time a pull-mode kernel needs it. Column [j] owns the index range
   [t_col_start.(j), t_col_start.(j+1)) of [t_cols]/[t_probs]:
   [t_cols] lists the *source* states i with P(i,j) > 0 in strictly
   increasing order (the transpose visits CSR rows in ascending i, and
   each row holds at most one entry per column) and [t_probs] the
   matching probabilities, bit-for-bit. Derived data only: never
   serialised — [Chain_codec] frames and recipe keys are computed from
   the CSR arrays alone and stay byte-stable. *)
type csc = {
  t_col_start : int array;
  t_cols : int array;
  t_probs : float array;
}

type t = {
  size : int;
  row_start : int array;
  cols : int array;
  probs : float array;
  cum : float array;
  csc : csc option Atomic.t;
}

let row_sum_tolerance = 1e-9

let normalize_row i entries =
  (* Sum duplicates, validate, and renormalise the row to exact mass 1. *)
  let table = Hashtbl.create (Array.length entries) in
  Array.iter
    (fun (j, p) ->
      if p < 0. || Float.is_nan p then
        invalid_arg (Printf.sprintf "Chain: negative probability in row %d" i);
      if p > 0. then
        Hashtbl.replace table j (p +. Option.value ~default:0. (Hashtbl.find_opt table j)))
    entries;
  let total = Hashtbl.fold (fun _ p acc -> acc +. p) table 0. in
  if Float.abs (total -. 1.) > row_sum_tolerance then
    invalid_arg (Printf.sprintf "Chain: row %d sums to %.12g, expected 1" i total);
  let out = Hashtbl.fold (fun j p acc -> (j, p /. total) :: acc) table [] in
  let out = Array.of_list out in
  Array.sort (fun (a, _) (b, _) -> compare a b) out;
  out

(* The public single-row entry point: exactly the validation +
   normalisation pipeline [of_rows] applies, so external row
   consumers (the out-of-core segment builder) produce probabilities
   bit-identical to an in-RAM chain built from the same generator. *)
let normalized_row ~size i entries =
  if size <= 0 then invalid_arg "Chain.normalized_row: size must be positive";
  Array.iter
    (fun (j, _) ->
      if j < 0 || j >= size then
        invalid_arg (Printf.sprintf "Chain: column %d out of range in row %d" j i))
    entries;
  normalize_row i entries

(* Pack validated per-row tuple arrays into the flat CSR arrays. *)
let pack size checked =
  let nnz = Array.fold_left (fun acc r -> acc + Array.length r) 0 checked in
  let row_start = Array.make (size + 1) 0 in
  let cols = Array.make nnz 0 in
  let probs = Array.make nnz 0. in
  let cum = Array.make nnz 0. in
  let k = ref 0 in
  for i = 0 to size - 1 do
    row_start.(i) <- !k;
    let acc = ref 0. in
    Array.iter
      (fun (j, p) ->
        cols.(!k) <- j;
        probs.(!k) <- p;
        acc := !acc +. p;
        cum.(!k) <- !acc;
        incr k)
      checked.(i)
  done;
  row_start.(size) <- !k;
  { size; row_start; cols; probs; cum; csc = Atomic.make None }

let of_rows ?pool rows =
  let size = Array.length rows in
  if size = 0 then invalid_arg "Chain.of_rows: empty chain";
  let check_row i entries = normalized_row ~size i entries in
  (* Cutover cost: normalising a row is a hash insert + fold + sort per
     entry — call it 64 work units each — so tiny chains build serially
     while logit-sized ones still fan out. *)
  let entries = Array.fold_left (fun acc r -> acc + Array.length r) 0 rows in
  let cost = 64 * (1 + (entries / size)) in
  let checked = Exec.Pool.init_opt ~cost pool ~n:size (fun i -> check_row i rows.(i)) in
  pack size checked

let of_function ?pool n row =
  (* [row] is caller code — for logit chains a full transition-row
     build, microseconds each — so assume macro-task weight rather than
     serialising on the unknowable. *)
  let rows = Exec.Pool.init_opt ~cost:1024 pool ~n (fun i -> Array.of_list (row i)) in
  of_rows ?pool rows

let of_dense m =
  if not (Linalg.Mat.is_square m) then invalid_arg "Chain.of_dense: non-square";
  let n = fst (Linalg.Mat.dims m) in
  of_rows
    (Array.init n (fun i ->
         let entries = ref [] in
         for j = n - 1 downto 0 do
           let p = Linalg.Mat.get m i j in
           (* lint: allow float-equality — exactly-zero entries are structurally absent *)
           if p <> 0. then entries := (j, p) :: !entries
         done;
         Array.of_list !entries))

let to_csr t = (Array.copy t.row_start, Array.copy t.cols, Array.copy t.probs)

let of_csr ~row_start ~cols ~probs =
  let size = Array.length row_start - 1 in
  if size < 1 then invalid_arg "Chain.of_csr: empty chain";
  let nnz = Array.length cols in
  if Array.length probs <> nnz then
    invalid_arg "Chain.of_csr: cols/probs length mismatch";
  if row_start.(0) <> 0 || row_start.(size) <> nnz then
    invalid_arg "Chain.of_csr: row offsets do not span the arrays";
  let row_start = Array.copy row_start in
  let cols = Array.copy cols in
  let probs = Array.copy probs in
  (* [cum] is derived data: recompute it with exactly the accumulation
     order of [pack], so a deserialised chain samples bit-identically
     to the chain that was serialised. *)
  let cum = Array.make nnz 0. in
  for i = 0 to size - 1 do
    let lo = row_start.(i) and hi = row_start.(i + 1) in
    if hi <= lo then
      invalid_arg (Printf.sprintf "Chain.of_csr: empty or negative row %d" i);
    let acc = ref 0. in
    for k = lo to hi - 1 do
      let j = cols.(k) in
      if j < 0 || j >= size then
        invalid_arg (Printf.sprintf "Chain.of_csr: column %d out of range in row %d" j i);
      if k > lo && cols.(k - 1) >= j then
        invalid_arg
          (Printf.sprintf "Chain.of_csr: columns not strictly increasing in row %d" i);
      let p = probs.(k) in
      (* [not (p > 0.)] also rejects NaN. *)
      if not (p > 0.) || p > 1. then
        invalid_arg
          (Printf.sprintf "Chain.of_csr: probability %.12g out of (0, 1] in row %d" p i);
      acc := !acc +. p;
      cum.(k) <- !acc
    done;
    if Float.abs (!acc -. 1.) > 1e-6 then
      invalid_arg (Printf.sprintf "Chain.of_csr: row %d sums to %.12g" i !acc)
  done;
  { size; row_start; cols; probs; cum; csc = Atomic.make None }

let size t = t.size
let nnz t = t.row_start.(t.size)
let degree t i = t.row_start.(i + 1) - t.row_start.(i)

let iter_row t i f =
  for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
    f t.cols.(k) t.probs.(k)
  done

let row t i =
  let lo = t.row_start.(i) in
  Array.init (degree t i) (fun k -> (t.cols.(lo + k), t.probs.(lo + k)))

let row_list t i = Array.to_list (row t i)

let prob t i j =
  (* Binary search over the strictly increasing column slice of row i. *)
  let lo = ref t.row_start.(i) and hi = ref (t.row_start.(i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.cols.(mid) in
    if c = j then begin
      result := t.probs.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

(* Counting transpose of the CSR arrays. Rows are visited in ascending
   i and entries within a row in ascending k, so the per-column source
   lists come out strictly increasing — the ordering the pull kernel's
   bit-identity argument rests on. *)
let build_csc t =
  let n = t.size in
  let nnz = t.row_start.(n) in
  let t_col_start = Array.make (n + 1) 0 in
  for k = 0 to nnz - 1 do
    let j = t.cols.(k) in
    t_col_start.(j + 1) <- t_col_start.(j + 1) + 1
  done;
  for j = 1 to n do
    t_col_start.(j) <- t_col_start.(j) + t_col_start.(j - 1)
  done;
  let cursor = Array.sub t_col_start 0 n in
  let t_cols = Array.make nnz 0 in
  let t_probs = Array.make nnz 0. in
  for i = 0 to n - 1 do
    for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      let j = t.cols.(k) in
      let slot = cursor.(j) in
      t_cols.(slot) <- i;
      t_probs.(slot) <- t.probs.(k);
      cursor.(j) <- slot + 1
    done
  done;
  { t_col_start; t_cols; t_probs }

(* The transpose is built at most once per chain in the common case; a
   concurrent first call may build it twice, but both builds are
   identical and the compare-and-set publishes exactly one of them, so
   every reader sees the same arrays (and the race is on an [Atomic],
   visible to TSan as synchronised). *)
let csc t =
  match Atomic.get t.csc with
  | Some c -> c
  | None ->
      let c = build_csc t in
      if Atomic.compare_and_set t.csc None (Some c) then c
      else (match Atomic.get t.csc with Some c -> c | None -> assert false)

let to_csc t =
  let c = csc t in
  (Array.copy c.t_col_start, Array.copy c.t_cols, Array.copy c.t_probs)

(* --- shared structure (β-families) ----------------------------------- *)

let int_arrays_equal a b =
  a == b
  || begin
       let n = Array.length a in
       n = Array.length b
       && begin
            let i = ref 0 in
            while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
              incr i
            done;
            !i = n
          end
     end

let same_structure a b =
  a.size = b.size
  && int_arrays_equal a.row_start b.row_start
  && int_arrays_equal a.cols b.cols

(* Physically share [base]'s index arrays when the structures agree.
   The probabilities and prefix sums stay the plane's own; the CSC view
   is pre-seeded with [base]'s index arrays plus a fresh [t_probs]
   filled by the same counting-transpose order [build_csc] uses — the
   values are copied straight from [t.probs], no arithmetic, so the
   seeded view is bit-identical to the one the plane would derive
   lazily on its own. A chain whose structure differs from [base]'s
   (sparsity can differ across β when softmax tails underflow) is
   returned unchanged. *)
let with_structure_of ~base t =
  if t == base then t
  else if not (same_structure base t) then t
  else begin
    let bc = csc base in
    let nnz = Array.length bc.t_probs in
    let t_probs = Array.make nnz 0. in
    let cursor = Array.sub bc.t_col_start 0 t.size in
    for i = 0 to t.size - 1 do
      for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
        let j = t.cols.(k) in
        let slot = cursor.(j) in
        t_probs.(slot) <- t.probs.(k);
        cursor.(j) <- slot + 1
      done
    done;
    {
      t with
      row_start = base.row_start;
      cols = base.cols;
      csc = Atomic.make (Some { bc with t_probs });
    }
  end

let check_evolve_args name t ~src ~dst =
  if Array.length src <> t.size || Array.length dst <> t.size then
    invalid_arg (name ^ ": dimension mismatch");
  if src == dst then invalid_arg (name ^ ": src and dst must be distinct")

(* Push (scatter) kernel: stream the CSR rows, accumulate into [dst].
   Indices are validated at construction ([cols] entries are in
   [0, size) and [row_start] is monotone within bounds) and the
   dimension checks in the callers cover [src]/[dst], so unchecked
   accesses are safe; the accumulation order matches the historical
   boxed-row code exactly. *)
let push_into t ~src ~dst =
  Array.fill dst 0 t.size 0.;
  let row_start = t.row_start and cols = t.cols and probs = t.probs in
  for i = 0 to t.size - 1 do
    let mass = Array.unsafe_get src i in
    if mass > 0. then begin
      let stop = Array.unsafe_get row_start (i + 1) - 1 in
      for k = Array.unsafe_get row_start i to stop do
        let j = Array.unsafe_get cols k in
        Array.unsafe_set dst j
          (Array.unsafe_get dst j +. (mass *. Array.unsafe_get probs k))
      done
    end
  done

(* Pull (gather) kernel for one destination: dst.(j) = Σᵢ src.(i)·P(i,j)
   with sources visited in increasing i. The push kernel deposits into
   slot j once per source row, rows ascending, starting from the 0. the
   fill wrote — the exact same addition sequence this register
   accumulation performs (0. +. x = x exactly, and mass·p > 0 so no
   signed zeros differ) — and it skips rows whose mass is not > 0.,
   which the per-entry guard below mirrors. Hence pull results are
   bit-identical to push, while every destination slot is written by
   exactly one loop iteration, so destinations can be chunked across
   domains race-free. The sum is stored here rather than returned: a
   float result would be boxed, two words per destination. *)
let pull_one c ~src ~dst j =
  let col_start = c.t_col_start and rows = c.t_cols and probs = c.t_probs in
  let acc = ref 0. in
  let stop = Array.unsafe_get col_start (j + 1) - 1 in
  for k = Array.unsafe_get col_start j to stop do
    let mass = Array.unsafe_get src (Array.unsafe_get rows k) in
    if mass > 0. then acc := !acc +. (mass *. Array.unsafe_get probs k)
  done;
  Array.unsafe_set dst j !acc

(* Cutover cost of one gathered destination: the average row degree
   (one fused multiply-add per stored transition). At logit-chain
   degrees this sends |S| ~ 1024 single-distribution evolves — the
   pooled by_power regression in the spmm_ablation records — down the
   serial path, while genuinely large chains still dispatch. *)
let evolve_cost t = Int.max 1 (t.row_start.(t.size) / t.size)

let evolve_pull_into ?pool t ~src ~dst =
  check_evolve_args "Chain.evolve_pull_into" t ~src ~dst;
  let c = csc t in
  match pool with
  | Some pool when Exec.Pool.parallelize pool ~cost:(evolve_cost t) ~n:t.size ->
      (* pull_one writes dst.(j) only: one writer per destination. *)
      Exec.Pool.parallel_for pool ~n:t.size (pull_one c ~src ~dst)
  | _ ->
      (* Direct loop: a closure dispatch per destination costs ~15% of
         the whole kernel at logit-chain degrees. *)
      for j = 0 to t.size - 1 do
        pull_one c ~src ~dst j
      done

let evolve_into ?pool t ~src ~dst =
  check_evolve_args "Chain.evolve_into" t ~src ~dst;
  match pool with
  | Some pool when Exec.Pool.parallelize pool ~cost:(evolve_cost t) ~n:t.size ->
      let c = csc t in
      (* pull_one writes dst.(j) only: one writer per destination. *)
      Exec.Pool.parallel_for pool ~n:t.size (pull_one c ~src ~dst)
  | _ ->
      (* Below the cutover the push scatter is the fastest serial
         kernel, and it is bit-identical to the pooled pull. *)
      push_into t ~src ~dst

let evolve t mu =
  if Array.length mu <> t.size then invalid_arg "Chain.evolve: dimension mismatch";
  let out = Array.make t.size 0. in
  push_into t ~src:mu ~dst:out;
  out

type panel = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Distributions per SpMM block: the src and dst slices of a block are
   re-read/re-written across the whole column sweep, so keep
   2 · block · size doubles within a conservative L2 budget. *)
let panel_block_bytes = 262_144

(* The panel annotations matter: without them the parameters infer as
   polymorphic bigarrays and every element access compiles to the
   generic (boxing) C call instead of a direct unboxed float load. *)
let evolve_many_into ?pool t ~k ~(src : panel) ~(dst : panel) =
  if k < 0 then invalid_arg "Chain.evolve_many_into: negative k";
  let n = t.size in
  if Bigarray.Array1.dim src <> k * n || Bigarray.Array1.dim dst <> k * n then
    invalid_arg "Chain.evolve_many_into: panel dimension mismatch";
  if src == dst then
    invalid_arg "Chain.evolve_many_into: src and dst must be distinct";
  let c = csc t in
  let block = Int.max 1 (Int.min k (panel_block_bytes / (16 * n))) in
  let blocks = (k + block - 1) / block in
  (* One flat index space over (block, destination) pairs: a single
     pool dispatch per call, and chunks claim consecutive destinations
     of one block, so a block's panel slice stays cache-resident while
     the matrix columns stream through. Each (r, j) cell is written by
     exactly one iteration; per cell the sources arrive in ascending i
     exactly as in [pull_one], so every row of the panel is
     bit-identical to a single-distribution evolve, for any pool size
     and any block size. *)
  let col_start = c.t_col_start and rows = c.t_cols and probs = c.t_probs in
  (* Cutover cost of one (block, destination) index: [block] gathered
     rows of [evolve_cost] multiply-adds each. *)
  Exec.Pool.iter_opt ~cost:(block * evolve_cost t) pool ~n:(blocks * n) (fun idx ->
      let b = idx / n in
      let j = idx - (b * n) in
      let r_hi = Int.min k ((b * block) + block) - 1 in
      let klo = Array.unsafe_get col_start j in
      let kstop = Array.unsafe_get col_start (j + 1) - 1 in
      for r = b * block to r_hi do
        let base = r * n in
        let acc = ref 0. in
        for kk = klo to kstop do
          let mass =
            Bigarray.Array1.unsafe_get src (base + Array.unsafe_get rows kk)
          in
          if mass > 0. then acc := !acc +. (mass *. Array.unsafe_get probs kk)
        done;
        (* lint: allow domain-capture — SpMM: dst cell (r, j) has exactly one writer, dispatch item (b, j) *)
        Bigarray.Array1.unsafe_set dst (base + j) !acc
      done)

(* Fused multi-plane SpMM: one call advances a panel for every plane of
   a β-family over ONE shared index structure. The dispatch space is
   flat (plane, block, destination); per (plane, r, j) cell the inner
   loop is exactly [evolve_many_into]'s gather (ascending sources,
   [mass > 0.] skip), so every plane's panel is bit-identical to a
   per-plane [evolve_many_into] — the fusion only changes how the
   shared [t_col_start]/[t_cols] traffic is amortised. *)
let evolve_many_shared_into ?pool planes ~k ~(src : panel array)
    ~(dst : panel array) =
  let np = Array.length planes in
  if np = 0 then invalid_arg "Chain.evolve_many_shared_into: no planes";
  if k < 0 then invalid_arg "Chain.evolve_many_shared_into: negative k";
  let base = planes.(0) in
  let n = base.size in
  Array.iter
    (fun t ->
      if not (same_structure base t) then
        invalid_arg "Chain.evolve_many_shared_into: planes do not share structure")
    planes;
  if Array.length src <> np || Array.length dst <> np then
    invalid_arg "Chain.evolve_many_shared_into: need one src/dst panel per plane";
  Array.iteri
    (fun p s ->
      if Bigarray.Array1.dim s <> k * n || Bigarray.Array1.dim dst.(p) <> k * n
      then invalid_arg "Chain.evolve_many_shared_into: panel dimension mismatch")
    src;
  for p = 0 to np - 1 do
    for q = 0 to np - 1 do
      if dst.(p) == src.(q) then
        invalid_arg "Chain.evolve_many_shared_into: src and dst panels must be distinct";
      if q > p && dst.(p) == dst.(q) then
        invalid_arg "Chain.evolve_many_shared_into: dst panels must be distinct"
    done
  done;
  let c = csc base in
  (* Per-plane probability planes over the shared index arrays: the
     counting-transpose slot order is a pure function of the structure,
     so [c]'s indices address every plane's [t_probs] correctly. *)
  let plane_probs = Array.map (fun t -> (csc t).t_probs) planes in
  (* The [panel_block_bytes] budget is per dispatch item, and a fused
     item walks its row block in EVERY plane's src/dst panels — so the
     block shrinks by the plane count to keep the same cache footprint
     as a solo [evolve_many_into] block. Block size never changes any
     cell's value (each (plane, row, column) gather is independent), so
     bit-identity is unaffected. *)
  let block = Int.max 1 (Int.min k (panel_block_bytes / (16 * n * np))) in
  let blocks = (k + block - 1) / block in
  let col_start = c.t_col_start and rows = c.t_cols in
  (* One dispatch item per (block, destination) pair — the SAME index
     space as [evolve_many_into], with the plane loop fused inside:
     column [j]'s slice of the shared [col_start]/[rows] arrays is
     resolved once and then drives the gather for every plane, which is
     the whole point of structure sharing. Per plane the (r, kk)
     iteration order and the [mass > 0.] skip are exactly
     [evolve_many_into]'s, so each plane's panel comes out
     bit-identical to a solo advance. Cutover cost of one item is
     [np] planes × [block] gathered rows of [evolve_cost]
     multiply-adds — the same total calibration as [np] separate
     [evolve_many_into] calls, so a β-grid on a below-cutover chain
     never dispatches however many planes it fuses. *)
  Exec.Pool.iter_opt ~cost:(np * block * evolve_cost base) pool
    ~n:(blocks * n)
    (fun idx ->
      let b = idx / n in
      let j = idx - (b * n) in
      let r_hi = Int.min k ((b * block) + block) - 1 in
      let klo = Array.unsafe_get col_start j in
      let kstop = Array.unsafe_get col_start (j + 1) - 1 in
      for p = 0 to np - 1 do
        let probs = Array.unsafe_get plane_probs p in
        let src : panel = Array.unsafe_get src p in
        let dst : panel = Array.unsafe_get dst p in
        for r = b * block to r_hi do
          let base = r * n in
          let acc = ref 0. in
          for kk = klo to kstop do
            let mass =
              Bigarray.Array1.unsafe_get src (base + Array.unsafe_get rows kk)
            in
            if mass > 0. then acc := !acc +. (mass *. Array.unsafe_get probs kk)
          done;
          (* lint: allow domain-capture — fused SpMM: dst cell (p, r, j) has exactly one writer, dispatch item (b, j) *)
          Bigarray.Array1.unsafe_set dst (base + j) !acc
        done
      done)

let apply ?pool t f =
  if Array.length f <> t.size then invalid_arg "Chain.apply: dimension mismatch";
  (* Gather-mode like [pull_one]: row i is read by exactly one
     iteration and out.(i) written once, so chunking rows across
     domains is race-free; accesses are unchecked because the CSR
     invariant bounds them and [f] is length-checked above. *)
  let out = Array.make t.size 0. in
  let row_start = t.row_start and cols = t.cols and probs = t.probs in
  Exec.Pool.iter_opt ~cost:(evolve_cost t) pool ~n:t.size (fun i ->
      let acc = ref 0. in
      let stop = Array.unsafe_get row_start (i + 1) - 1 in
      for k = Array.unsafe_get row_start i to stop do
        acc :=
          !acc
          +. (Array.unsafe_get probs k
              *. Array.unsafe_get f (Array.unsafe_get cols k))
      done;
      (* lint: allow domain-capture — gather: out.(i) has exactly one writer, iteration i *)
      Array.unsafe_set out i !acc);
  out

let to_dense t =
  let m = Linalg.Mat.create t.size t.size 0. in
  for i = 0 to t.size - 1 do
    iter_row t i (fun j p -> Linalg.Mat.set m i j p)
  done;
  m

let sample_step_of t i ~u =
  let lo = t.row_start.(i) and hi = t.row_start.(i + 1) - 1 in
  (* Smallest k with u < cum.(k) — the entry the old linear scan chose;
     a u at or past the accumulated row mass (possible when the
     renormalised probabilities round their sum below the draw) falls
     back to the last entry, which is strictly positive by
     construction. *)
  let cum = t.cum in
  if u >= Array.unsafe_get cum hi then t.cols.(hi)
  else begin
    let a = ref lo and b = ref hi in
    while !a < !b do
      let mid = (!a + !b) / 2 in
      if u < Array.unsafe_get cum mid then b := mid else a := mid + 1
    done;
    Array.unsafe_get t.cols !a
  end

let sample_step rng t i = sample_step_of t i ~u:(Prob.Rng.float rng)

let simulate rng t ~start ~steps =
  if start < 0 || start >= t.size then invalid_arg "Chain.simulate: bad start";
  if steps < 0 then invalid_arg "Chain.simulate: negative steps";
  let trajectory = Array.make (steps + 1) start in
  for k = 1 to steps do
    trajectory.(k) <- sample_step rng t trajectory.(k - 1)
  done;
  trajectory

let hitting_time rng t ~start ~target ~max_steps =
  if start < 0 || start >= t.size then invalid_arg "Chain.hitting_time: bad start";
  if max_steps < 0 then invalid_arg "Chain.hitting_time: negative max_steps";
  let rec go state step =
    if target state then Some step
    else if step >= max_steps then None
    else go (sample_step rng t state) (step + 1)
  in
  go start 0

let successors t i =
  List.init (degree t i) (fun k -> t.cols.(t.row_start.(i) + k))

let reachable_from neighbours size start =
  let seen = Array.make size false in
  seen.(start) <- true;
  let queue = Queue.create () in
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      (neighbours u)
  done;
  seen

let is_irreducible t =
  let forward = reachable_from (successors t) t.size 0 in
  if not (Array.for_all Fun.id forward) then false
  else begin
    (* Backward reachability needs the reversed adjacency. *)
    let preds = Array.make t.size [] in
    for i = 0 to t.size - 1 do
      iter_row t i (fun j p -> if p > 0. then preds.(j) <- i :: preds.(j))
    done;
    let backward = reachable_from (fun u -> preds.(u)) t.size 0 in
    Array.for_all Fun.id backward
  end

let gcd_aux a b =
  let rec go a b = if b = 0 then a else go b (a mod b) in
  go (Stdlib.abs a) (Stdlib.abs b)

let is_aperiodic t =
  (* Any positive self-loop makes an irreducible chain aperiodic; this
     is the common case for logit chains (the selected player may keep
     her strategy). Otherwise compute the period as the gcd over edges
     (u, v) of level(u) + 1 - level(v) for BFS levels from state 0. *)
  let has_loop = ref false in
  for i = 0 to t.size - 1 do
    iter_row t i (fun j p -> if i = j && p > 0. then has_loop := true)
  done;
  if !has_loop then true
  else begin
    let level = Array.make t.size (-1) in
    level.(0) <- 0;
    let queue = Queue.create () in
    Queue.add 0 queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if level.(v) < 0 then begin
            level.(v) <- level.(u) + 1;
            Queue.add v queue
          end)
        (successors t u)
    done;
    let g = ref 0 in
    for u = 0 to t.size - 1 do
      if level.(u) >= 0 then
        iter_row t u (fun v p ->
            if p > 0. && level.(v) >= 0 then
              g := Stdlib.abs (gcd_aux !g (level.(u) + 1 - level.(v))))
    done;
    !g = 1
  end

let is_reversible ?(tol = 1e-9) t pi =
  if Array.length pi <> t.size then invalid_arg "Chain.is_reversible: dimension";
  let ok = ref true in
  for i = 0 to t.size - 1 do
    iter_row t i (fun j p ->
        let flow = pi.(i) *. p in
        let back = pi.(j) *. prob t j i in
        if Float.abs (flow -. back) > tol then ok := false)
  done;
  !ok

let edge_measure t pi i j = pi.(i) *. prob t i j

let lazy_version t =
  of_rows
    (Array.init t.size (fun i ->
         let halved = Array.map (fun (j, p) -> (j, 0.5 *. p)) (row t i) in
         Array.append halved [| (i, 0.5) |]))

let check_starts n starts =
  if starts = [] then invalid_arg "Mixing: empty start set";
  List.iter
    (fun s -> if s < 0 || s >= n then invalid_arg "Mixing: start out of range")
    starts

let panel_create len =
  Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout len

let panel_of_starts n starts =
  let p = panel_create (List.length starts * n) in
  Bigarray.Array1.fill p 0.;
  List.iteri (fun r s -> Bigarray.Array1.set p ((r * n) + s) 1.) starts;
  p

(* TV of panel row [r] against pi; bounds are guaranteed by the callers
   ([pi] length-checked against the kernel, panels allocated with
   [Array.length tvs] rows); the sum runs left to right over the
   states. *)
let tv_row pi (panel : Chain.panel) r =
  let n = Array.length pi in
  let base = r * n in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc :=
      !acc
      +. Float.abs
           (Bigarray.Array1.unsafe_get panel (base + i) -. Array.unsafe_get pi i)
  done;
  0.5 *. !acc

let refresh_tvs pool pi panel tvs =
  (* Cutover cost of one TV row: one |S|-length abs-diff sum. *)
  Exec.Pool.iter_opt ~cost:(Array.length pi) pool ~n:(Array.length tvs) (fun r ->
      (* lint: allow domain-capture — tvs.(r) has exactly one writer, iteration r *)
      tvs.(r) <- tv_row pi panel r)

let worst tvs = Array.fold_left Float.max 0. tvs

(* The one panel-evolution loop behind every exact-TV answer: TV
   curves, mixing times, β-grids, the daemon's coalesced groups and the
   out-of-core path all settle through it, generalised over storage
   layout and plane count by [Kernel.t]. That is what makes coalesced,
   fused and segmented answers bit-identical to serial in-RAM ones by
   construction rather than by test alone.

   Per plane, the start distributions live in one flat row-major
   Float64 panel (start r occupies [r·n, (r+1)·n)), double-buffered
   across steps. One kernel advance per step moves every start of
   every live plane, so matrix (and, for a shared family, index)
   traffic is amortised over the whole panel and grid. Each panel row
   is bit-identical to a per-start evolve, the per-row TV refresh sums
   left to right, and Float.max over the tvs is exact and
   order-independent — so every plane sees exactly the (step, worst)
   sequence a solo sweep over it would, pooled or serial.

   The live-plane arrays and the kernel's advance are rebuilt only when
   a plane settles — at most P times per sweep — so a steady-state
   step allocates no live-set bookkeeping, for any P. *)
let sweep ?pool kernel ~pis ~starts ~decide =
  let np = Kernel.planes kernel and n = Kernel.size kernel in
  if Array.length pis <> np then invalid_arg "Mixing.sweep: need one pi per plane";
  Array.iter
    (fun pi -> if Array.length pi <> n then invalid_arg "Mixing: dimension mismatch")
    pis;
  check_starts n starts;
  let k = List.length starts in
  let tvs = Array.init np (fun _ -> Array.make k 0.) in
  let settled = Array.make np false in
  (* Position i of [live], [srcs] and [dsts] is one live plane. *)
  let live = ref (Array.init np Fun.id) in
  let srcs = ref (Array.init np (fun _ -> panel_of_starts n starts)) in
  let dsts = ref (Array.init np (fun _ -> panel_create (k * n))) in
  Array.iteri (fun p pi -> refresh_tvs pool pi !srcs.(p) tvs.(p)) pis;
  let advance = ref (kernel.Kernel.select !live) in
  let rec go step =
    let changed = ref false in
    let cur = !live in
    for i = 0 to Array.length cur - 1 do
      let p = cur.(i) in
      if decide ~plane:p ~step ~worst:(worst tvs.(p)) then begin
        settled.(p) <- true;
        changed := true
      end
    done;
    if !changed then begin
      let keep =
        List.filter (fun i -> not settled.(cur.(i))) (List.init (Array.length cur) Fun.id)
      in
      let pick a = Array.of_list (List.map (Array.get a) keep) in
      srcs := pick !srcs;
      dsts := pick !dsts;
      live := pick cur;
      if keep <> [] then advance := kernel.Kernel.select !live
    end;
    let live = !live and src = !srcs and dst = !dsts in
    if Array.length live > 0 then begin
      !advance ~pool ~k ~src ~dst;
      for i = 0 to Array.length live - 1 do
        let p = live.(i) in
        let previous = src.(i) in
        src.(i) <- dst.(i);
        dst.(i) <- previous;
        refresh_tvs pool pis.(p) src.(i) tvs.(p)
      done;
      go (step + 1)
    end
  in
  go 0

(* Settle times of every plane at [eps]: [None] past [max_steps]. *)
let mixing_times ?pool ?(eps = 0.25) ?(max_steps = 1_000_000) kernel ~pis ~starts =
  let out = Array.make (Kernel.planes kernel) None in
  sweep ?pool kernel ~pis ~starts ~decide:(fun ~plane ~step ~worst ->
      if worst <= eps then begin
        (* lint: allow domain-capture — decide runs on the driving thread only *)
        out.(plane) <- Some step;
        true
      end
      else step >= max_steps);
  out

let tv_curve_kernel ?pool kernel pi ~starts ~steps =
  if steps < 0 then invalid_arg "Mixing.tv_curve: negative steps";
  let curve = Array.make (steps + 1) 0. in
  sweep ?pool kernel ~pis:[| pi |] ~starts ~decide:(fun ~plane:_ ~step ~worst ->
      curve.(step) <- worst;
      step >= steps);
  curve

let tv_curve ?pool t pi ~starts ~steps =
  tv_curve_kernel ?pool (Kernel.of_chain t) pi ~starts ~steps

let mixing_time_kernel ?pool ?eps ?max_steps kernel pi ~starts =
  (mixing_times ?pool ?eps ?max_steps kernel ~pis:[| pi |] ~starts).(0)

let mixing_time ?pool ?eps ?max_steps t pi ~starts =
  mixing_time_kernel ?pool ?eps ?max_steps (Kernel.of_chain t) pi ~starts

let mixing_time_all ?pool ?eps ?max_steps t pi =
  mixing_time ?pool ?eps ?max_steps t pi ~starts:(List.init (Chain.size t) Fun.id)

let family_mixing_times ?pool ?eps ?max_steps family ~pis ~starts =
  mixing_times ?pool ?eps ?max_steps (Family.kernel family) ~pis ~starts

let tv_at t pi ~start ~steps =
  if steps < 0 then invalid_arg "Mixing.tv_at: negative steps";
  (tv_curve t pi ~starts:[ start ] ~steps).(steps)

let empirical_tv ?pool rng t pi ~start ~steps ~replicas =
  check_starts (Chain.size t) [ start ];
  if steps < 0 then invalid_arg "Mixing.empirical_tv: negative steps";
  if replicas < 1 then invalid_arg "Mixing.empirical_tv: need replicas";
  (* Replica r always consumes stream r of the split, so the estimate
     is a function of the seed alone — the same bits drive the chains
     whether they run serially or across any number of domains. *)
  let streams = Prob.Rng.split_n rng replicas in
  let final = Array.make replicas start in
  (* Cutover cost of one replica: [steps] sampler draws, each an RNG
     advance plus an O(log degree) binary search — call it 8 units. *)
  Exec.Pool.iter_opt ~cost:(8 * steps) pool ~n:replicas (fun r ->
      let rng = streams.(r) in
      let state = ref start in
      for _ = 1 to steps do
        state := Chain.sample_step rng t !state
      done;
      (* lint: allow domain-capture — final.(r) has exactly one writer, replica r *)
      final.(r) <- !state);
  let emp = Prob.Empirical.create (Chain.size t) in
  Array.iter (Prob.Empirical.add emp) final;
  Prob.Empirical.tv_against emp (Prob.Dist.of_weights pi)

let upper_mixing_time_spectral ~gap ~pi_min ~eps =
  if gap <= 0. || pi_min <= 0. || eps <= 0. then
    invalid_arg "Mixing.upper_mixing_time_spectral";
  (1. /. gap) *. log (1. /. (eps *. pi_min))

let lower_mixing_time_spectral ~gap ~eps =
  if gap <= 0. || eps <= 0. then invalid_arg "Mixing.lower_mixing_time_spectral";
  ((1. /. gap) -. 1.) *. log (1. /. (2. *. eps))

let decompose t pi = Linalg.Eigen.jacobi (Spectral.symmetrize t pi)

(* λ^t with sign handling and underflow-to-zero for huge t. *)
let eigen_pow lambda t =
  if t = 0 then 1.
  (* lint: allow float-equality — exact zero short-circuits before log *)
  else if lambda = 0. then 0.
  else begin
    let magnitude = exp (float_of_int t *. log (Float.abs lambda)) in
    if lambda < 0. && t land 1 = 1 then -.magnitude else magnitude
  end

let tv_at_spectral ~decomposition pi ~start ~steps =
  let values, u = decomposition in
  let n = Array.length pi in
  if start < 0 || start >= n then invalid_arg "Mixing.tv_at_spectral: bad start";
  if steps < 0 then invalid_arg "Mixing.tv_at_spectral: negative steps";
  let k_count = Array.length values in
  (* Pᵗ(x,y) = Σ_k λ_kᵗ U(x,k) U(y,k) √(π(y)/π(x)). *)
  let powers = Array.map (fun lambda -> eigen_pow lambda steps) values in
  let sqrt_pi = Array.map sqrt pi in
  let acc = ref 0. in
  for y = 0 to n - 1 do
    let p = ref 0. in
    for k = 0 to k_count - 1 do
      (* lint: allow float-equality — exact-zero skip of underflowed spectral terms *)
      if powers.(k) <> 0. then
        p := !p +. (powers.(k) *. Linalg.Mat.get u start k *. Linalg.Mat.get u y k)
    done;
    let pt = !p *. sqrt_pi.(y) /. sqrt_pi.(start) in
    acc := !acc +. Float.abs (pt -. pi.(y))
  done;
  0.5 *. !acc

let mixing_time_from_decomposition ?(eps = 0.25) ?(max_steps = max_int / 4)
    ~decomposition pi ~starts =
  if starts = [] then invalid_arg "Mixing: empty start set";
  let d steps =
    List.fold_left
      (fun acc start ->
        Float.max acc (tv_at_spectral ~decomposition pi ~start ~steps))
      0. starts
  in
  if d 0 <= eps then Some 0
  else begin
    (* Double to bracket, then binary search on the monotone d(·). *)
    let rec bracket hi = if d hi <= eps then Some hi else if hi >= max_steps then None else bracket (Int.min max_steps (2 * hi)) in
    match bracket 1 with
    | None -> None
    | Some hi ->
        let rec search lo hi =
          (* invariant: d(lo) > eps >= d(hi) *)
          if hi - lo <= 1 then hi
          else
            let mid = lo + ((hi - lo) / 2) in
            if d mid <= eps then search lo mid else search mid hi
        in
        Some (search (hi / 2) hi)
  end

let mixing_time_spectral ?eps ?max_steps t pi ~starts =
  check_starts (Chain.size t) starts;
  mixing_time_from_decomposition ?eps ?max_steps ~decomposition:(decompose t pi)
    pi ~starts

let renormalize_rows m =
  let n, _ = Linalg.Mat.dims m in
  for i = 0 to n - 1 do
    let s = ref 0. in
    for j = 0 to n - 1 do
      s := !s +. Linalg.Mat.get m i j
    done;
    if !s > 0. then
      for j = 0 to n - 1 do
        Linalg.Mat.set m i j (Linalg.Mat.get m i j /. !s)
      done
  done;
  m

let mixing_time_squaring ?(eps = 0.25) ?(max_steps = max_int / 4) t pi ~starts =
  check_starts (Chain.size t) starts;
  let n = Chain.size t in
  if n > 768 then invalid_arg "Mixing.mixing_time_squaring: state space too large";
  let d_matrix m =
    List.fold_left
      (fun acc start ->
        let tv = ref 0. in
        for y = 0 to n - 1 do
          tv := !tv +. Float.abs (Linalg.Mat.get m start y -. pi.(y))
        done;
        Float.max acc (0.5 *. !tv))
      0. starts
  in
  let p = Chain.to_dense t in
  if d_matrix (Linalg.Mat.identity n) <= eps then Some 0
  else begin
    (* Precompute P^(2^k) until the power alone has mixed or the step
       budget is exceeded. *)
    let powers = ref [ p ] in
    let rec grow m k =
      if d_matrix m <= eps then Some k
      else if 1 lsl (k + 1) > max_steps || k >= 61 then None
      else begin
        let m2 = renormalize_rows (Linalg.Mat.mul m m) in
        powers := m2 :: !powers;
        grow m2 (k + 1)
      end
    in
    match grow p 0 with
    | None -> None
    | Some top ->
        let powers = Array.of_list (List.rev !powers) in
        (* Find the largest t with d(t) > eps by fixing bits from the
           top; the answer is that t plus one. *)
        let accumulated = ref None in
        let steps = ref 0 in
        for k = top - 1 downto 0 do
          let candidate =
            match !accumulated with
            | None -> Linalg.Mat.copy powers.(k)
            | Some q -> renormalize_rows (Linalg.Mat.mul q powers.(k))
          in
          if d_matrix candidate > eps then begin
            accumulated := Some candidate;
            steps := !steps + (1 lsl k)
          end
        done;
        Some (!steps + 1)
  end

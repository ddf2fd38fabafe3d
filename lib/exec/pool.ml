type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
  dispatches : int Atomic.t;
}

(* Work-based serial cutover. Dispatching a parallel_for costs a few
   microseconds (task submission, atomic claims, the helping-wait), so a
   pooled kernel whose whole serial runtime is of that order runs
   *slower* pooled — the spmm_ablation by_power regression in the bench
   trajectory (0.38x at |S| = 1024). Every [?pool] kernel therefore estimates its work as
   [n * cost] (cost ~ inner-loop iterations per index, so a work unit is
   roughly a fused multiply-add) and falls back to the serial loop below
   the cutover. 65536 units ~ tens of microseconds of serial work, an
   order of magnitude above the dispatch cost. The value is a process
   global: settable for tests and for machines with unusually cheap or
   expensive domain wakeups, never per-call. *)
let default_serial_cutover = 65_536
let cutover = Atomic.make default_serial_cutover
let serial_cutover () = Atomic.get cutover

let set_serial_cutover n =
  if n < 0 then invalid_arg "Pool.set_serial_cutover: negative cutover";
  Atomic.set cutover n

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.nonempty t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    job ();
    worker_loop t
  end

let create ?domains () =
  let size =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if size < 1 then invalid_arg "Pool.create: need at least one domain";
  let t =
    {
      size;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      workers = [||];
      dispatches = Atomic.make 0;
    }
  in
  t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size
let dispatches t = Atomic.get t.dispatches

(* Saturating [n * cost >= cutover]: n and cost are both non-negative
   and bounded by array sizes / row degrees in practice, but the guard
   must not overflow for adversarial inputs. *)
let parallelize t ~cost ~n =
  if cost < 0 then invalid_arg "Pool.parallelize: negative cost";
  t.size > 1 && n > 0 && cost > 0
  && (let limit = Atomic.get cutover in
      (* n * cost >= limit, overflow-free: (limit - 1) / cost never
         overflows, unlike the product or the rounded-up quotient. *)
      limit <= 0 || n > (limit - 1) / cost)

let shutdown t =
  Mutex.lock t.mutex;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  if not was_closed then Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let submit t job =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: pool has been shut down"
  end;
  Queue.add job t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let try_pop t =
  Mutex.lock t.mutex;
  let job = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
  Mutex.unlock t.mutex;
  job

let default_chunk size n = Int.max 1 ((n + (8 * size) - 1) / (8 * size))

let parallel_for ?chunk t ~n body =
  if n > 0 then begin
    let chunk =
      match chunk with
      | Some c -> if c < 1 then invalid_arg "Pool.parallel_for: chunk < 1" else c
      | None -> default_chunk t.size n
    in
    if t.size = 1 || n <= chunk then
      for i = 0 to n - 1 do
        body i
      done
    else begin
      if t.closed then invalid_arg "Pool: pool has been shut down";
      Atomic.incr t.dispatches;
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      (* Chunked self-scheduling: every participant claims the next
         [chunk] indices until the range is exhausted. *)
      let work () =
        let continue = ref true in
        while !continue do
          let lo = Atomic.fetch_and_add next chunk in
          if lo >= n then continue := false
          else begin
            let hi = Int.min n (lo + chunk) in
            try
              for i = lo to hi - 1 do
                body i
              done
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt)));
              (* Abort: make every participant's next claim fail. *)
              Atomic.set next n;
              continue := false
          end
        done
      in
      let helpers = Int.min (t.size - 1) (((n + chunk - 1) / chunk) - 1) in
      let remaining = Atomic.make helpers in
      for _ = 1 to helpers do
        submit t (fun () ->
            work ();
            Atomic.decr remaining)
      done;
      work ();
      (* Help drain the queue while waiting: our helper tasks may still
         be queued behind other calls' tasks (or never get picked up at
         all on a busy pool), and running them here also keeps nested
         parallel_for calls deadlock-free. *)
      while Atomic.get remaining > 0 do
        match try_pop t with Some job -> job () | None -> Domain.cpu_relax ()
      done;
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let map ?chunk t ~n f =
  if n < 0 then invalid_arg "Pool.map: negative size";
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    parallel_for ?chunk t ~n:(n - 1) (fun i -> out.(i + 1) <- f (i + 1));
    out
  end

let reduce ?chunk t ~n ~map:f ~combine ~init =
  if n <= 0 then init
  else begin
    (* The chunking depends only on [n], never on the pool size, so the
       association of [combine] — and hence the floating-point result —
       is identical across pool sizes. *)
    let chunk =
      match chunk with
      | Some c -> if c < 1 then invalid_arg "Pool.reduce: chunk < 1" else c
      | None -> Int.max 1 ((n + 63) / 64)
    in
    let chunks = (n + chunk - 1) / chunk in
    let partials =
      map t ~n:chunks (fun c ->
          let lo = c * chunk in
          let hi = Int.min n (lo + chunk) in
          let acc = ref (f lo) in
          for i = lo + 1 to hi - 1 do
            acc := combine !acc (f i)
          done;
          !acc)
    in
    Array.fold_left combine init partials
  end

let iter_opt ?(cost = 1) pool ~n body =
  match pool with
  | Some t when parallelize t ~cost ~n -> parallel_for t ~n body
  | _ ->
      for i = 0 to n - 1 do
        body i
      done

let init_opt ?(cost = 1) pool ~n f =
  match pool with
  | Some t when parallelize t ~cost ~n -> map t ~n f
  | _ -> Array.init n f

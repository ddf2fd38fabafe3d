(* The panel-coalescing scheduler.

   A batch is whatever the server read off its clients in one loop
   iteration. Mixing queries on the same game id and n — across β,
   regardless of which client sent them — are settled together by ONE
   Mixing.sweep with one kernel plane per β: a single β sweeps its
   chain, several β become one Markov.Family advanced by the fused
   multi-plane SpMM over their shared index structure. Each request
   retires at its own eps, so one matrix (or structure) traversal per
   step serves the whole group. Spectral-route requests share their
   entry's cached eigendecomposition per β. Answers are bit-identical
   to serial evaluation because both run the same primitives over the
   same floats — the coalescing only changes who pays for the matrix
   traffic. Invalid parameters (eps outside (0, 1), a β that is not
   finite and non-negative) answer Bad_request through the same
   Engine checks as serial evaluation, and never reach a sweep.

   Deadlines are absolute monotonic nanosecond instants fixed at
   admission; they are enforced between panel steps (and before any
   serial evaluation), never mid-traversal. *)

module P = Protocol

type 'a job = {
  tag : 'a;
  req_id : int;
  deadline_ns : int64 option;
  query : P.query;
}

type stats = {
  mutable batches : int;
  mutable max_batch : int;
  mutable panel_steps : int;
}

let stats_zero () = { batches = 0; max_batch = 0; panel_steps = 0 }

let expired job =
  match job.deadline_ns with
  | None -> false
  | Some d -> Int64.compare (Common.Clock.monotonic_ns ()) d > 0

let guard f =
  match f () with
  | r -> r
  | exception Common.No_convergence msg -> Error (P.Server_error msg)
  | exception Invalid_argument msg -> Error (P.Server_error msg)

(* Spectral-route group: the entry's eigendecomposition is computed
   once (then cached on the entry across batches); each request is a
   cheap doubling + binary search at its own eps. *)
let run_spectral_group engine out e group =
  List.iter
    (fun (pos, job, eps, replicas, seed) ->
      out.(pos) <-
        (if expired job then Error P.Deadline_exceeded
         else
           guard (fun () ->
               let tmix =
                 Markov.Mixing.mixing_time_from_decomposition ~eps
                   ~decomposition:(Engine.decomposition e) e.Engine.pi
                   ~starts:(Engine.all_starts e)
               in
               Ok (Engine.mixing_reply_of engine e ~tmix ~replicas ~seed))))
    group

(* One coalesced sweep over [groups], a list of (beta, entry, jobs)
   triples that share a game and n: one kernel plane per β. A single β
   sweeps its chain directly; several become one Markov.Family whose
   planes advance through the fused multi-plane SpMM, one traversal of
   the shared index structure per step for the whole cross-β batch.
   Each request settles at its own eps exactly as the serial
   Mixing.mixing_time would: the eps check runs before the deadline and
   budget checks, so a request whose answer lands on its deadline step
   still gets its answer. Per plane the (step, worst) sequence is the
   solo sweep's, so every answer is unchanged — the grouping only
   changes who pays for the matrix and index traffic. *)
let run_panel_group engine stats out groups =
  let groups = Array.of_list groups in
  let jobs = Array.map (fun (_, _, g) -> Array.of_list g) groups in
  let settled = Array.map (fun ja -> Array.make (Array.length ja) None) jobs in
  let remaining = Array.map Array.length jobs in
  let settle p i outcome =
    settled.(p).(i) <- Some outcome;
    remaining.(p) <- remaining.(p) - 1
  in
  let budget = Engine.max_steps engine in
  (* One traversal advances every live plane, so the work a group pays
     for is its deepest plane's step count, not the sum over planes. *)
  let deepest = ref 0 in
  let decide ~plane ~step ~worst =
    deepest := Int.max !deepest step;
    let now = Common.Clock.monotonic_ns () in
    Array.iteri
      (fun i (_, job, eps, _, _) ->
        if Option.is_none settled.(plane).(i) then
          if worst <= eps then settle plane i (Ok (Some step))
          else
            match job.deadline_ns with
            | Some d when Int64.compare now d > 0 ->
                settle plane i (Error P.Deadline_exceeded)
            | _ -> if step >= budget then settle plane i (Ok None))
      jobs.(plane);
    remaining.(plane) = 0
  in
  let sweep () =
    let kernel =
      match groups with
      | [| (_, e, _) |] -> Markov.Kernel.of_chain e.Engine.chain
      | _ ->
          Markov.Family.kernel
            (Markov.Family.v
               ~betas:(Array.map (fun (beta, _, _) -> beta) groups)
               ~planes:(Array.map (fun (_, e, _) -> e.Engine.chain) groups))
    in
    let _, e0, _ = groups.(0) in
    Markov.Mixing.sweep ?pool:(Engine.pool engine) kernel
      ~pis:(Array.map (fun (_, e, _) -> e.Engine.pi) groups)
      ~starts:(Engine.all_starts e0) ~decide;
    Ok ()
  in
  (match guard sweep with
  | Ok () -> ()
  | Error err ->
      (* The sweep itself failed: every still-pending request inherits
         the failure. *)
      Array.iteri
        (fun p sa ->
          Array.iteri (fun i s -> if Option.is_none s then settle p i (Error err)) sa)
        settled);
  stats.panel_steps <- stats.panel_steps + !deepest;
  Array.iteri
    (fun p (_, e, _) ->
      Array.iteri
        (fun i (pos, _, _, replicas, seed) ->
          out.(pos) <-
            (match settled.(p).(i) with
            | Some (Ok tmix) ->
                guard (fun () ->
                    Ok (Engine.mixing_reply_of engine e ~tmix ~replicas ~seed))
            | Some (Error err) -> Error err
            | None -> Error (P.Server_error "panel sweep left a request unsettled")))
        jobs.(p))
    groups

(* Every mixing query on one (game, n), as (pos, job, eps, replicas,
   seed, beta) in arrival order. Sub-grouped by exact β bits in
   first-seen order; each β resolves its own engine entry inside the
   exception barrier, so a bad β or a failed build answers only its own
   requests. Spectral β groups answer from their decomposition, expired
   requests get the typed error without sweeping, and every remaining
   β joins the one panel sweep. *)
let run_mixing_key engine stats out ~game ~n items =
  let by_beta = Hashtbl.create 4 in
  let beta_order = ref [] in
  List.iter
    (fun (pos, job, eps, replicas, seed, beta) ->
      let bkey = Int64.bits_of_float beta in
      let prev = Hashtbl.find_opt by_beta bkey in
      if prev = None then beta_order := (bkey, beta) :: !beta_order;
      Hashtbl.replace by_beta bkey
        ((pos, job, eps, replicas, seed) :: Option.value ~default:[] prev))
    items;
  let panel_groups =
    List.filter_map
      (fun (bkey, beta) ->
        let sub = List.rev (Hashtbl.find by_beta bkey) in
        let entry () =
          Result.map_error
            (fun msg -> P.Bad_request msg)
            (Engine.entry engine ~game ~n ~beta)
        in
        match guard entry with
        | Error err ->
            List.iter (fun (pos, _, _, _, _) -> out.(pos) <- Error err) sub;
            None
        | Ok e when Engine.spectral_route engine e ->
            run_spectral_group engine out e sub;
            None
        | Ok e ->
            let live, dead =
              List.partition (fun (_, job, _, _, _) -> not (expired job)) sub
            in
            List.iter (fun (pos, _, _, _, _) -> out.(pos) <- Error P.Deadline_exceeded) dead;
            if live = [] then None else Some (beta, e, live))
      (List.rev !beta_order)
  in
  if panel_groups <> [] then run_panel_group engine stats out panel_groups

let run_batch engine stats jobs =
  let jobs_a = Array.of_list jobs in
  let n = Array.length jobs_a in
  if n = 0 then []
  else begin
    stats.batches <- stats.batches + 1;
    if n > stats.max_batch then stats.max_batch <- n;
    let out = Array.make n (Error (P.Server_error "unprocessed")) in
    (* Coalesce valid mixing queries by (game, n) — cross-β — so a
       β-grid's worth of requests shares one index-structure traversal;
       everything else is evaluated serially in arrival order. *)
    let groups = Hashtbl.create 8 in
    let order = ref [] in
    Array.iteri
      (fun pos job ->
        match job.query with
        | P.Mixing { game; n = players; beta; eps; replicas; seed } -> (
            match Engine.check_eps eps with
            | Error msg -> out.(pos) <- Error (P.Bad_request msg)
            | Ok () ->
                let key = (game, players) in
                let prev = Hashtbl.find_opt groups key in
                if prev = None then order := key :: !order;
                Hashtbl.replace groups key
                  ((pos, job, eps, replicas, seed, beta) :: Option.value ~default:[] prev))
        | q ->
            out.(pos) <-
              (if expired job then Error P.Deadline_exceeded
               else guard (fun () -> Engine.eval engine q)))
      jobs_a;
    List.iter
      (fun ((game, n) as key) ->
        run_mixing_key engine stats out ~game ~n (List.rev (Hashtbl.find groups key)))
      (List.rev !order);
    Array.to_list (Array.mapi (fun i job -> (job, out.(i))) jobs_a)
  end

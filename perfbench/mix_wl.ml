module P = Serve.Protocol
module E = Serve.Engine
open Gen

let load_refs path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
      String.split_on_char '\n' text
      |> List.filter_map (fun l ->
             match String.split_on_char ' ' (String.trim l) with
             | [ game; n; beta; eps; tmix ] ->
                 Some
                   ( (game, int_of_string n, float_of_string beta, float_of_string eps),
                     int_of_string tmix )
             | _ -> None)

(* The untimed reference: a recorded panel-route value when there is
   one, else the panel route run now on the same chain. *)
let reference refs ~game ~n ~beta ~eps chain pi =
  match List.assoc_opt (game, n, beta, eps) refs with
  | Some t -> Some t
  | None ->
      Markov.Mixing.mixing_time ~eps ~max_steps:E.default_max_steps chain pi
        ~starts:(List.init (Markov.Chain.size chain) Fun.id)

let show = function Some t -> string_of_int t | None -> "none"

(* One answered β point: did it match its reference? *)
let check refs q ~beta ~route got chain pi =
  let want = reference refs ~game:q.game ~n:q.n ~beta ~eps:q.eps chain pi in
  Report.info "route %s %s n=%d beta=%g eps=%g route=%s t_mix=%s" (class_name q.cls) q.game q.n
    beta q.eps route (show got);
  if got = want && got <> None then true
  else begin
    Report.info "MISMATCH mixing %s n=%d beta=%g eps=%g: t_mix %s, panel route %s" q.game q.n
      beta q.eps (show got) (show want);
    false
  end

let mixing_query q beta =
  P.Mixing { game = q.game; n = q.n; beta; eps = q.eps; replicas = 0; seed = 1 }

let setup dir = E.create ~store:(Store.Cas.open_ ~dir ()) ()

(* Answer [q] as the CLI does, on a fresh engine; returns
   (answer seconds, ok). *)
let answer refs ~work q =
  let dir = Util.fresh_dir work "store" in
  let engine = setup dir in
  let t = Util.now () in
  let outcomes =
    match q.cls with
    | Small | Large -> List.map (fun beta -> (beta, E.eval engine (mixing_query q beta))) q.betas
    | Grid ->
        let jobs =
          List.mapi
            (fun i beta ->
              { Serve.Scheduler.tag = beta; req_id = i; deadline_ns = None;
                query = mixing_query q beta })
            q.betas
        in
        List.map
          (fun (job, outcome) -> (job.Serve.Scheduler.tag, outcome))
          (Serve.Scheduler.run_batch engine (Serve.Scheduler.stats_zero ()) jobs)
  in
  let answer_s = Util.since t in
  let ok =
    List.for_all
      (fun (beta, outcome) ->
        match (outcome, E.entry engine ~game:q.game ~n:q.n ~beta) with
        | Ok (P.Mixing_r m), Ok e ->
            let route =
              if E.spectral_route engine e then "spectral"
              else if q.cls = Grid then "family"
              else "panel"
            in
            check refs q ~beta ~route m.P.tmix e.E.chain e.E.pi
        | _ ->
            Report.info "MISMATCH mixing %s n=%d beta=%g: no mixing answer" q.game q.n beta;
            false)
      outcomes
  in
  Util.rm_rf dir;
  (answer_s, ok)

let run profile ~seed ~refs ~cli ~work ~seconds =
  let refs = load_refs refs in
  let queries = mixing_pass profile ~seed in
  (* The 4096-state query once: it takes about 12 s. Then passes for
     [seconds]. *)
  let large_s, large_ok = answer refs ~work (mixing_large profile) in
  let t0 = Util.now () in
  let rec loop acc =
    if List.length acc >= 2 && Util.since t0 >= seconds then List.rev acc
    else loop (List.map (fun q -> (q.cls, answer refs ~work q)) queries :: acc)
  in
  let passes = loop [] in
  let all = List.concat passes in
  let times cls = List.filter_map (fun (c, (s, _)) -> if c = cls then Some s else None) all in
  let failed = List.length (List.filter (fun (_, (_, ok)) -> not ok) all) in
  (* Every timing is a median over the run's repetitions, as in the
     experiments workload. *)
  let pass_s = Summary.median (List.map (List.fold_left (fun acc (_, (s, _)) -> acc +. s) 0.) passes) in
  Report.info "mixing: %d passes, mixing_small_s=%.4f mixing_grid_s=%.4f (medians), mixing_large_s=%.4f"
    (List.length passes) (Summary.median (times Small)) (Summary.median (times Grid)) large_s;
  {
    Util.attempted = List.length all + 1;
    failed = (failed + if large_ok then 0 else 1);
    metrics =
      [
        ("setup_s", Util.setup_s ~work ~reps:25 (fun dir -> Util.run_quiet cli [ "store"; "ls"; "--store"; dir ]));
        ("pass_s", pass_s);
        ("typical_ms", 1000. *. Summary.median (times Small));
        ("tail_ms", 1000. *. large_s);
        ("peak_rss_mb", Util.peak_rss_mb ());
      ];
  }

(* The layer calls [Engine.eval] makes for one mixing query, in order,
   without the store: catalog build, chain, stationary law,
   reversibility, then the route the engine's default cutoff picks. *)
let traced_point refs q beta =
  Trace.span "mixing.query" @@ fun () ->
  let spec = Option.get (Serve.Catalog.find q.game) in
  let game, potential = Trace.span "games.tabulate" (fun () -> spec.Serve.Catalog.build ~n:q.n ~beta) in
  let chain = Trace.span "core.chain_build" (fun () -> Logit.Logit_dynamics.chain game ~beta) in
  Trace.count "core.chain_nnz" (float_of_int (Markov.Chain.nnz chain));
  let space = Games.Game.space game in
  let pi =
    Trace.span "core.gibbs" (fun () ->
        match potential with
        | Some phi -> Logit.Gibbs.stationary space phi ~beta
        | None -> Markov.Stationary.by_solve chain)
  in
  let reversible =
    Trace.span "markov.is_reversible" (fun () -> Markov.Chain.is_reversible ~tol:1e-7 chain pi)
  in
  let size = Games.Game.size game in
  let starts = List.init size Fun.id in
  let spectral = reversible && size <= E.default_spectral_cutoff in
  let tmix =
    if spectral then
      let decomposition = Trace.span "markov.decompose" (fun () -> Markov.Mixing.decompose chain pi) in
      Trace.span "markov.from_decomposition" (fun () ->
          Markov.Mixing.mixing_time_from_decomposition ~eps:q.eps ~decomposition pi ~starts)
    else begin
      ignore (Trace.span "markov.csc_transpose" (fun () -> Markov.Chain.to_csc chain));
      let t =
        Trace.span "markov.panel_sweep" (fun () ->
            Markov.Mixing.mixing_time ~eps:q.eps ~max_steps:E.default_max_steps chain pi ~starts)
      in
      let steps = float_of_int (Option.value t ~default:E.default_max_steps) in
      Trace.count "markov.panel_steps" steps;
      (* computed, not measured: two panels of |starts| x |S| doubles per step *)
      Trace.count "markov.panel_bytes" (2. *. float_of_int (size * size * 8) *. steps);
      t
    end
  in
  Option.iter
    (fun phi ->
      Trace.span "core.barrier" (fun () ->
          ignore (Games.Potential.delta_global space phi);
          ignore (Games.Potential.delta_local space phi);
          ignore (Logit.Barrier.zeta space phi)))
    potential;
  let route = if spectral then "spectral" else if q.cls = Grid then "family" else "panel" in
  check refs q ~beta ~route tmix chain pi

let traced profile ~seed ~refs =
  let refs = load_refs refs in
  let queries = mixing_pass profile ~seed @ [ mixing_large profile ] in
  let oks = List.map (fun q -> List.for_all (traced_point refs q) q.betas) queries in
  {
    Util.attempted = List.length oks;
    failed = List.length (List.filter not oks);
    metrics =
      List.map
        (fun l -> (l ^ "_s", Trace.self_s l))
        [
          "games.tabulate"; "core.chain_build"; "core.gibbs"; "core.barrier"; "markov.decompose";
          "markov.from_decomposition"; "markov.csc_transpose"; "markov.panel_sweep";
        ]
      @ List.map (fun c -> (c, Trace.counter c)) [ "core.chain_nnz"; "markov.panel_steps"; "markov.panel_bytes" ];
  }

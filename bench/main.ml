(* Benchmark harness.

   Phase 1 regenerates every experiment table of DESIGN.md /
   EXPERIMENTS.md (the paper has no numeric tables of its own; the
   theorem-indexed experiments E1..E9 play that role).

   Phase 2 runs Bechamel micro-benchmarks of the hot kernels plus the
   ablation pairs called out in DESIGN.md:
   - sparse evolve vs dense matrix-vector product,
   - lumped birth-death step vs full-chain step,
   - deflated power iteration vs full Jacobi for lambda_2,
   - logit transition-row construction and coupling steps.

   Phase 1.5 times the multicore execution layer against the serial
   kernels it replaces (same inputs, results checked for agreement):
   chain materialisation, the all-starts TV sweep, mixing_time_all,
   Monte Carlo empirical TV, and CFTP replicas. --jobs N picks the
   pool size (default: the machine's recommended domain count, at
   least 2).

   Phase 1.7 is the artifact-store ablation: the `logitdyn mixing`
   artifact pipeline (chain, stationary law, TV curve) is run cold and
   then warm against a fresh store, the decoded artifacts are checked
   bit-identical to the computed ones, and a killed-mid-grid sweep is
   resumed through Sweep.map_cached.

   Phase 1.8 is the kernel ablation for distribution evolution: the
   blocked SpMM panel kernel [Chain.evolve_many_into], which advances
   all starts in one matrix traversal, serial against pooled on
   mixing_time_all and the all-starts TV curve, plus the stationary
   power iteration serial against pooled. Each pooled arm is gated on
   bit-identical outputs with its serial reference.

   Phase 1.9 is the daemon load bench: a logitdynd server is spun up
   on a private socket and (a) 8 clients race one same-chain mixing
   request each — answered serially vs through the server's coalesced
   panel sweep, gated on bit-identical replies — and (b) an open-loop
   sender offers requests at a fixed rate regardless of completions
   and the p50/p99 response latencies and achieved throughput are
   measured.

   Phase 1.10 is the out-of-core segment ablation: a lazy cycle walk
   is packed into an on-disk segment (10^7 states in the full profile
   — past anything the in-RAM path is asked to hold) and the TV sweep
   is run over the streaming kernels, mmap'd serial and pooled and in
   bounded-buffer stream mode with the peak RSS sampled. All arms are
   gated on bit-identity against the in-RAM SpMM kernels at overlap
   sizes.

   Every ablation phase appends its timings, as provenance-stamped
   trajectory records, to BENCH_HISTORY.json — the harness's only
   artifact.

   Pass --quick to shrink the experiment sweeps; pass --skip-micro to
   print only the tables; pass --phase NAME (store, spmm, serve, ooc or
   family — phases 1.7 to 1.11) to run just that ablation. Any other
   argument exits 2 before the harness starts. *)

open Bechamel
open Toolkit

(* The command line, read in one pass before anything runs: --quick,
   --skip-micro, --jobs N and --phase NAME. Any other argument (a stale
   --X-only spelling, say) or a non-integer --jobs exits 2 here, before
   any output; phase names are checked against the phase table below. *)
let quick, skip_micro, jobs_arg, phase_args =
  let argv = Sys.argv in
  let n = Array.length argv in
  let usage msg =
    Printf.eprintf
      "bench: %s; options: --quick, --skip-micro, --jobs N, --phase NAME\n" msg;
    exit 2
  in
  let rec go i (quick, skip_micro, jobs, phases) =
    if i >= n then (quick, skip_micro, jobs, List.rev phases)
    else
      match argv.(i) with
      | "--quick" -> go (i + 1) (true, skip_micro, jobs, phases)
      | "--skip-micro" -> go (i + 1) (quick, true, jobs, phases)
      | "--jobs" -> (
          let value = if i + 1 < n then argv.(i + 1) else "" in
          match int_of_string_opt value with
          | Some j -> go (i + 2) (quick, skip_micro, Some j, phases)
          | None -> usage (Printf.sprintf "--jobs needs an integer, got %S" value))
      | "--phase" ->
          (* A missing name reads as "" and is reported as unknown. *)
          let name = if i + 1 < n then argv.(i + 1) else "" in
          go (i + 2) (quick, skip_micro, jobs, name :: phases)
      | arg -> usage (Printf.sprintf "unknown argument %S" arg)
  in
  go 1 (false, false, None, [])

(* One trajectory record of the running phase, in this run's profile.
   Serial arms are the default ([jobs = 1]); [speedup] is against the
   phase's reference arm. *)
let record ?peak_rss_kb ?(jobs = 1) ~bench ~workload ~arm ~seconds ~speedup
    ~correct () =
  Bench.Record.v ?peak_rss_kb ~bench ~workload ~arm ~seconds ~speedup ~correct
    ~quick ~jobs ()

(* Every ablation phase reports here: its records are stamped with
   provenance and appended to the BENCH_HISTORY.json trajectory in one
   step. A record that fails validation is a bug in the phase — fail
   the run, appending nothing. *)
let record_phase ~label records =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | Ok r :: rest -> collect (r :: acc) rest
    | (Error _ as e) :: _ -> e
  in
  match Result.bind (collect [] records) Bench.History.append_run with
  | Ok records ->
      Printf.printf "%s: +%d trajectory records in %s\n" label
        (List.length records) Bench.History.default_path
  | Error msg ->
      Printf.eprintf "FATAL: %s records rejected by the bench trajectory: %s\n"
        label msg;
      exit 1

let jobs =
  match jobs_arg with
  | Some j when j >= 2 -> j
  | _ -> Int.max 2 (Domain.recommended_domain_count ())

(* --- Phase 2 fixtures ------------------------------------------------ *)

let ring_desc =
  Games.Graphical.create (Graphs.Generators.ring 10)
    (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)

let ring_game = Games.Graphical.to_game ring_desc
let beta = 1.0
let ring_chain = lazy (Logit.Logit_dynamics.chain ring_game ~beta)

let ring_dense = lazy (Markov.Chain.to_dense (Lazy.force ring_chain))

let clique_bd = lazy (Logit.Lumping.clique ~n:64 ~delta0:1.0 ~delta1:1.0 ~beta)
let clique_bd_chain = lazy (Markov.Birth_death.to_chain (Lazy.force clique_bd))

let small_desc =
  Games.Graphical.create (Graphs.Generators.ring 6)
    (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)

let small_game = Games.Graphical.to_game small_desc
let small_chain = lazy (Logit.Logit_dynamics.chain small_game ~beta)

let small_pi =
  lazy
    (Logit.Gibbs.stationary (Games.Game.space small_game)
       (Games.Graphical.potential small_desc)
       ~beta)

let tests =
  let uniform_vector n = Array.make n (1. /. float_of_int n) in
  [
    Test.make ~name:"logit/transition-row"
      (Staged.stage (fun () ->
           ignore (Logit.Logit_dynamics.transition_row ring_game ~beta 511)));
    Test.make ~name:"kernel/matvec-sparse"
      (Staged.stage (fun () ->
           let chain = Lazy.force ring_chain in
           ignore (Markov.Chain.evolve chain (uniform_vector 1024))));
    Test.make ~name:"kernel/matvec-dense"
      (Staged.stage (fun () ->
           let dense = Lazy.force ring_dense in
           ignore (Linalg.Mat.vmul (uniform_vector 1024) dense)));
    Test.make ~name:"kernel/lumping-bd-step"
      (Staged.stage (fun () ->
           let chain = Lazy.force clique_bd_chain in
           ignore (Markov.Chain.evolve chain (uniform_vector 65))));
    Test.make ~name:"kernel/lambda2-power"
      (Staged.stage (fun () ->
           let chain = Lazy.force small_chain in
           ignore (Markov.Spectral.lambda2 ~tol:1e-9 chain (Lazy.force small_pi))));
    Test.make ~name:"kernel/lambda2-jacobi"
      (Staged.stage (fun () ->
           let chain = Lazy.force small_chain in
           ignore (Markov.Spectral.spectrum chain (Lazy.force small_pi))));
    Test.make ~name:"logit/simulate-step"
      (Staged.stage
         (let rng = Prob.Rng.create 1 in
          let state = ref 0 in
          fun () -> state := Logit.Logit_dynamics.step rng ring_game ~beta !state));
    Test.make ~name:"logit/coupling-step"
      (Staged.stage
         (let rng = Prob.Rng.create 2 in
          let step = Logit.Dynamics.interval_coupling ring_game ~beta in
          let pair = ref (0, 1023) in
          fun () -> pair := step rng !pair));
    Test.make ~name:"barrier/zeta-ring10"
      (Staged.stage (fun () ->
           ignore
             (Logit.Barrier.zeta (Games.Game.space ring_game)
                (Games.Graphical.potential ring_desc))));
    Test.make ~name:"graphs/cutwidth-exact-n12"
      (Staged.stage (fun () ->
           ignore (Graphs.Cutwidth.exact (Graphs.Generators.ring 12))));
    Test.make ~name:"logit/metropolis-step"
      (Staged.stage
         (let rng = Prob.Rng.create 3 in
          let state = ref 0 in
          fun () -> state := Logit.Metropolis.step rng ring_game ~beta !state));
    Test.make ~name:"logit/cftp-exact-sample"
      (Staged.stage
         (let rng = Prob.Rng.create 4 in
          fun () ->
            ignore (Logit.Perfect_sampling.sample rng small_game ~beta)));
    Test.make ~name:"logit/transfer-matrix-n1000"
      (Staged.stage
         (let phi =
            Games.Coordination.edge_potential
              (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
          in
          fun () ->
            let tm = Logit.Transfer_matrix.create ~strategies:2 ~beta:2.0 phi in
            ignore (Logit.Transfer_matrix.log_partition tm ~n:1000)));
    Test.make ~name:"kernel/tridiag-bd-n256"
      (Staged.stage (fun () ->
           let bd = Logit.Lumping.clique ~n:255 ~delta0:1.0 ~delta1:1.0 ~beta:0.01 in
           ignore (Markov.Birth_death.decomposition bd)));
  ]

(* --- Phase 1.5: serial vs parallel ablation --------------------------- *)

(* All durations are measured on the monotonic clock: the wall clock
   can step under NTP, and a backwards step would corrupt the
   min-of-reps estimates below by recording a negative or tiny rep. *)
let time f =
  let t0 = Common.Clock.monotonic_ns () in
  let result = f () in
  (result, Common.Clock.span_s ~since:t0)

(* Tiny kernels (full-size by_power is ~5 ms) are noise at single-shot
   granularity: preemption, GC slices and frequency drift all add time,
   never subtract it, so the per-arm *minimum* over interleaved reps is
   the robust estimate of the true cost (mean-of-reps still wobbled
   ±5% between identical arms). Alternate which arm goes first so
   neither slot systematically absorbs events the other one queued up;
   each arm runs once up front for its result (doubling as warm-up). *)
let time_pair ~reps f g =
  let rf = f () in
  let rg = g () in
  let tf = ref infinity in
  let tg = ref infinity in
  let timed cell h =
    let t0 = Common.Clock.monotonic_ns () in
    ignore (h ());
    cell := Float.min !cell (Common.Clock.span_s ~since:t0)
  in
  for rep = 1 to reps do
    if rep land 1 = 0 then (timed tf f; timed tg g)
    else (timed tg g; timed tf f)
  done;
  ((rf, !tf), (rg, !tg))

let chain_equal a b =
  Markov.Chain.size a = Markov.Chain.size b
  && begin
       let ok = ref true in
       for i = 0 to Markov.Chain.size a - 1 do
         if Markov.Chain.row a i <> Markov.Chain.row b i then ok := false
       done;
       !ok
     end

let max_abs_diff a b =
  let d = ref 0. in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

let run_ablation () =
  let n_ring = if quick then 8 else 10 in
  let steps = if quick then 50 else 200 in
  let replicas = if quick then 2_000 else 20_000 in
  let cftp_count = if quick then 200 else 1_000 in
  let desc =
    Games.Graphical.create (Graphs.Generators.ring n_ring)
      (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
  in
  let game = Games.Graphical.to_game desc in
  let size = Games.Game.size game in
  let pi =
    Logit.Gibbs.stationary (Games.Game.space game)
      (Games.Graphical.potential desc)
      ~beta
  in
  let starts = List.init size Fun.id in
  Exec.Pool.with_pool ~domains:jobs @@ fun pool ->
  let table =
    Experiments.Table.create
      ~title:
        (Printf.sprintf
           "exec ablation: serial vs %d domains (ring n=%d, |S|=%d, beta=%g)"
           jobs n_ring size beta)
      [
        ("kernel", Experiments.Table.Left);
        ("serial s", Experiments.Table.Right);
        ("parallel s", Experiments.Table.Right);
        ("speedup", Experiments.Table.Right);
        ("agree", Experiments.Table.Right);
      ]
  in
  let add name t_serial t_parallel agree =
    Experiments.Table.add_row table
      [
        name;
        Printf.sprintf "%.3f" t_serial;
        Printf.sprintf "%.3f" t_parallel;
        Printf.sprintf "%.2fx" (t_serial /. t_parallel);
        agree;
      ]
  in
  let chain_s, t_s = time (fun () -> Logit.Logit_dynamics.chain game ~beta) in
  let chain_p, t_p = time (fun () -> Logit.Logit_dynamics.chain ~pool game ~beta) in
  add "chain materialise (sparse rows)" t_s t_p
    (Experiments.Table.cell_bool (chain_equal chain_s chain_p));
  let curve_s, t_s =
    time (fun () -> Markov.Mixing.tv_curve chain_s pi ~starts ~steps)
  in
  let curve_p, t_p =
    time (fun () -> Markov.Mixing.tv_curve ~pool chain_s pi ~starts ~steps)
  in
  add
    (Printf.sprintf "tv_curve (all starts, %d steps)" steps)
    t_s t_p
    (Printf.sprintf "max|d| %.1e" (max_abs_diff curve_s curve_p));
  let tmix_s, t_s = time (fun () -> Markov.Mixing.mixing_time_all chain_s pi) in
  let tmix_p, t_p =
    time (fun () -> Markov.Mixing.mixing_time_all ~pool chain_s pi)
  in
  add "mixing_time_all" t_s t_p (Experiments.Table.cell_bool (tmix_s = tmix_p));
  let emp_s, t_s =
    time (fun () ->
        Markov.Mixing.empirical_tv (Prob.Rng.create 11) chain_s pi ~start:0
          ~steps:100 ~replicas)
  in
  let emp_p, t_p =
    time (fun () ->
        Markov.Mixing.empirical_tv ~pool (Prob.Rng.create 11) chain_s pi ~start:0
          ~steps:100 ~replicas)
  in
  add
    (Printf.sprintf "empirical_tv (%d replicas)" replicas)
    t_s t_p
    (Experiments.Table.cell_bool (emp_s = emp_p));
  let small = Games.Graphical.to_game small_desc in
  let cftp_s, t_s =
    time (fun () ->
        Logit.Perfect_sampling.samples (Prob.Rng.create 12) small ~beta
          ~count:cftp_count)
  in
  let cftp_p, t_p =
    time (fun () ->
        Logit.Perfect_sampling.samples ~pool (Prob.Rng.create 12) small ~beta
          ~count:cftp_count)
  in
  add
    (Printf.sprintf "CFTP samples (%d draws)" cftp_count)
    t_s t_p
    (Experiments.Table.cell_bool (cftp_s = cftp_p));
  Experiments.Table.add_note table
    "parallel runs reuse one pool; agreement is checked on the actual outputs.";
  Experiments.Table.print table

(* --- Phase 1.8: SpMM kernel ablation ---------------------------------- *)

let run_spmm_ablation () =
  let n_ring = if quick then 8 else 10 in
  let tv_steps = if quick then 50 else 150 in
  let desc =
    Games.Graphical.create (Graphs.Generators.ring n_ring)
      (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
  in
  let game = Games.Graphical.to_game desc in
  let size = Games.Game.size game in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let pi =
    Logit.Gibbs.stationary (Games.Game.space game)
      (Games.Graphical.potential desc)
      ~beta
  in
  (* Force the lazy CSC derivation once, outside all timed regions, so
     every SpMM arm pays for kernels, not for the transpose. *)
  ignore (Markov.Chain.to_csc chain);
  Exec.Pool.with_pool ~domains:jobs @@ fun pool ->
  let tmix_serial, t_serial = time (fun () -> Markov.Mixing.mixing_time_all chain pi) in
  let tmix_pooled, t_pooled =
    time (fun () -> Markov.Mixing.mixing_time_all ~pool chain pi)
  in
  let starts = List.init size Fun.id in
  let curve_serial, t_curve_serial =
    time (fun () -> Markov.Mixing.tv_curve chain pi ~starts ~steps:tv_steps)
  in
  let curve_pooled, t_curve_pooled =
    time (fun () -> Markov.Mixing.tv_curve ~pool chain pi ~starts ~steps:tv_steps)
  in
  let (power_serial, t_power_serial), (power_pooled, t_power_pooled) =
    time_pair ~reps:100
      (fun () -> Markov.Stationary.by_power chain)
      (fun () -> Markov.Stationary.by_power ~pool chain)
  in
  let table =
    Experiments.Table.create
      ~title:
        (Printf.sprintf
           "SpMM ablation: serial vs pooled blocked SpMM (ring n=%d, |S|=%d, \
            beta=%g, %d domains)"
           n_ring size beta jobs)
      [
        ("workload / arm", Experiments.Table.Left);
        ("seconds", Experiments.Table.Right);
        ("speedup", Experiments.Table.Right);
        ("agree", Experiments.Table.Right);
      ]
  in
  let add name seconds speedup agree =
    Experiments.Table.add_row table
      [
        name;
        Printf.sprintf "%.3f" seconds;
        Printf.sprintf "%.2fx" speedup;
        Experiments.Table.cell_bool agree;
      ]
  in
  let mix_correct = tmix_serial = tmix_pooled in
  let tv_correct = curve_serial = curve_pooled in
  let bp_correct = power_serial = power_pooled in
  add "mixing_time_all / SpMM serial" t_serial 1.0 mix_correct;
  add "mixing_time_all / SpMM pooled" t_pooled (t_serial /. t_pooled) mix_correct;
  add (Printf.sprintf "tv_curve(%d) / SpMM serial" tv_steps) t_curve_serial 1.0
    tv_correct;
  add
    (Printf.sprintf "tv_curve(%d) / SpMM pooled" tv_steps)
    t_curve_pooled
    (t_curve_serial /. t_curve_pooled)
    tv_correct;
  add "by_power / serial push" t_power_serial 1.0 bp_correct;
  add "by_power / pooled pull" t_power_pooled (t_power_serial /. t_power_pooled)
    bp_correct;
  Experiments.Table.add_note table
    "agree = serial and pooled outputs bit-identical (t_mix, every TV curve \
     point, the stationary vector).";
  Experiments.Table.print table;
  let r = record ~bench:"spmm_ablation" in
  record_phase ~label:"SpMM ablation"
    [
      r ~workload:"mixing_time_all" ~arm:"spmm_serial" ~seconds:t_serial
        ~speedup:1.0 ~correct:mix_correct ();
      r ~workload:"mixing_time_all" ~arm:"spmm_pooled" ~seconds:t_pooled
        ~speedup:(t_serial /. t_pooled) ~correct:mix_correct ~jobs ();
      r ~workload:"tv_curve" ~arm:"spmm" ~seconds:t_curve_serial ~speedup:1.0
        ~correct:tv_correct ();
      r ~workload:"tv_curve" ~arm:"spmm_pooled" ~seconds:t_curve_pooled
        ~speedup:(t_curve_serial /. t_curve_pooled) ~correct:tv_correct ~jobs ();
      r ~workload:"by_power" ~arm:"serial" ~seconds:t_power_serial ~speedup:1.0
        ~correct:bp_correct ();
      r ~workload:"by_power" ~arm:"pooled" ~seconds:t_power_pooled
        ~speedup:(t_power_serial /. t_power_pooled) ~correct:bp_correct ~jobs
        ();
    ]

(* --- Phase 1.7: artifact store ablation -------------------------------- *)

let run_store_ablation () =
  let n_ring = if quick then 8 else 10 in
  let tv_steps = if quick then 50 else 150 in
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "logitdyn-bench-store-%d" (Unix.getpid ()))
  in
  let cas = Store.Cas.open_ ~dir:root () in
  ignore (Store.Cas.clear cas);
  let desc =
    Games.Graphical.create (Graphs.Generators.ring n_ring)
      (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
  in
  let game = Games.Graphical.to_game desc in
  let size = Games.Game.size game in
  let phi = Games.Graphical.potential desc in
  let starts = List.init size Fun.id in
  (* One "run" of the `logitdyn mixing` artifact pipeline: chain,
     stationary law and TV curve, each built through the store. *)
  let chain_key =
    Markov.Chain_codec.recipe ~game:"bench-ring" ~size ~beta
      ~variant:"sequential-logit"
      ~extra:[ ("n", string_of_int n_ring) ]
      ()
  in
  let dist_key =
    Store.Key.v ~kind:"dist"
      [
        ("game", "bench-ring");
        ("n", string_of_int n_ring);
        ("beta", Store.Key.float_field beta);
        ("role", "stationary");
      ]
  in
  let curve_key =
    Store.Key.v ~kind:"curve"
      [
        ("game", "bench-ring");
        ("n", string_of_int n_ring);
        ("beta", Store.Key.float_field beta);
        ("steps", string_of_int tv_steps);
      ]
  in
  let through key encode decode build =
    match Store.Cas.get_decoded cas key ~decode with
    | Some v -> v
    | None ->
        let v = build () in
        Store.Cas.put cas key (encode v);
        v
  in
  let run_once () =
    let chain =
      Markov.Chain_codec.cached ~store:cas chain_key (fun () ->
          Logit.Logit_dynamics.chain game ~beta)
    in
    let pi =
      through dist_key Store.Codec.encode_dist Store.Codec.decode_dist
        (fun () -> Logit.Gibbs.stationary (Games.Game.space game) phi ~beta)
    in
    let curve =
      through curve_key Store.Codec.encode_curve Store.Codec.decode_curve
        (fun () -> Markov.Mixing.tv_curve chain pi ~starts ~steps:tv_steps)
    in
    (chain, pi, curve)
  in
  let (chain_cold, pi_cold, curve_cold), t_cold = time run_once in
  let cold = Store.Cas.stats cas in
  let (chain_warm, pi_warm, curve_warm), t_warm = time run_once in
  let warm = Store.Cas.stats cas in
  let warm_hits = warm.Store.Cas.hits - cold.Store.Cas.hits in
  let chain_identical = chain_equal chain_cold chain_warm in
  let pi_identical = pi_cold = pi_warm in
  let curve_identical = curve_cold = curve_warm in
  (* Resume a sweep killed mid-grid: file the first 5 of 12 points by
     hand (the "interrupted run"), then let Sweep.map_cached finish. *)
  let grid = List.init 12 Fun.id in
  let point_key i =
    Store.Key.v ~kind:"bench-point" [ ("i", string_of_int i) ]
  in
  let encode_point x = Store.Codec.encode_dist [| x |] in
  let decode_point s = Result.map (fun a -> a.(0)) (Store.Codec.decode_dist s) in
  let computed = ref 0 in
  let f i =
    incr computed;
    float_of_int (i * i)
  in
  List.iter
    (fun i -> if i < 5 then Store.Cas.put cas (point_key i) (encode_point (f i)))
    grid;
  let before_resume = !computed in
  let results =
    Experiments.Sweep.map_cached ~store:cas ~key:point_key ~encode:encode_point
      ~decode:decode_point f grid
  in
  let recomputed = !computed - before_resume in
  let resume_ok =
    recomputed = 7 && results = List.map (fun i -> float_of_int (i * i)) grid
  in
  let table =
    Experiments.Table.create
      ~title:
        (Printf.sprintf
           "store ablation: cold vs warm artifact pipeline (ring n=%d, |S|=%d, \
            beta=%g)"
           n_ring size beta)
      [
        ("workload", Experiments.Table.Left);
        ("cold s", Experiments.Table.Right);
        ("warm s", Experiments.Table.Right);
        ("speedup", Experiments.Table.Right);
        ("agree", Experiments.Table.Right);
      ]
  in
  Experiments.Table.add_row table
    [
      Printf.sprintf "chain + stationary + tv_curve(%d)" tv_steps;
      Printf.sprintf "%.3f" t_cold;
      Printf.sprintf "%.3f" t_warm;
      Printf.sprintf "%.1fx" (t_cold /. t_warm);
      Experiments.Table.cell_bool
        (chain_identical && pi_identical && curve_identical);
    ];
  Experiments.Table.add_row table
    [
      "sweep resume (12 points, 5 pre-filed)";
      "-";
      "-";
      Printf.sprintf "%d recomputed" recomputed;
      Experiments.Table.cell_bool resume_ok;
    ];
  Experiments.Table.add_note table
    (Printf.sprintf
       "cold: %d miss(es), %d write(s); warm: %d hit(s). agree = decoded \
        artifacts bit-identical to the computed ones."
       cold.Store.Cas.misses cold.Store.Cas.writes warm_hits);
  Experiments.Table.print table;
  (* The resume check counts recomputations, not time: it has no
     trajectory record. *)
  let r = record ~bench:"store_ablation" ~workload:"pipeline" in
  let correct = chain_identical && pi_identical && curve_identical in
  record_phase ~label:"store ablation"
    [
      r ~arm:"cold" ~seconds:t_cold ~speedup:1.0 ~correct ();
      r ~arm:"warm" ~seconds:t_warm ~speedup:(t_cold /. t_warm) ~correct ();
    ];
  ignore (Store.Cas.clear cas)

(* --- Phase 1.9: daemon load bench ------------------------------------ *)

let run_serve_ablation () =
  let module SP = Serve.Protocol in
  let n_ring = if quick then 8 else 10 in
  let beta = 1.0 in
  let clients = 8 in
  (* Distinct eps per client: the eight requests coalesce into ONE
     panel sweep but settle at different steps, so the bit-identity
     gate compares genuinely different answers, not 8 copies of one. *)
  let epss = [ 0.3; 0.25; 0.2; 0.15; 0.12; 0.1; 0.08; 0.05 ] in
  assert (List.length epss = clients);
  let mixing_q ~n eps =
    SP.Mixing { game = "ring"; n; beta; eps; replicas = 0; seed = 1 }
  in
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "logitdyn-bench-%d.sock" (Unix.getpid ()))
  in
  (* spectral_cutoff 0 forces the panel route on both arms: this phase
     times the coalescing scheduler, not the eigensolver. *)
  let server_engine = Serve.Engine.create ~spectral_cutoff:0 () in
  let server = Serve.Server.create ~engine:server_engine ~socket_path () in
  let server_domain =
    Domain.spawn (fun () -> Serve.Server.serve_forever server)
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join server_domain)
  @@ fun () ->
  let serial_engine = Serve.Engine.create ~spectral_cutoff:0 () in
  let size =
    match Serve.Engine.entry serial_engine ~game:"ring" ~n:n_ring ~beta with
    | Ok e -> Games.Game.size e.Serve.Engine.game
    | Error msg -> failwith msg
  in
  (* Warm the daemon's chain untimed so both arms time sweeps only. *)
  (match Serve.Client.query ~socket_path (mixing_q ~n:n_ring 0.45) with
  | Ok (Ok _) -> ()
  | Ok (Error _) | Error _ -> failwith "daemon warm-up query failed");
  let serial_replies, serial_s =
    time (fun () ->
        List.map
          (fun eps -> Serve.Engine.eval serial_engine (mixing_q ~n:n_ring eps))
          epss)
  in
  let conns =
    List.map
      (fun _ ->
        match Serve.Client.connect ~socket_path with
        | Ok c -> c
        | Error msg -> failwith msg)
      epss
  in
  let daemon_replies, coalesced_s =
    time (fun () ->
        List.iter2
          (fun c eps ->
            match
              Serve.Client.send c
                { SP.id = 1; deadline_ms = None; query = mixing_q ~n:n_ring eps }
            with
            | Ok () -> ()
            | Error msg -> failwith msg)
          conns epss;
        List.map
          (fun c ->
            match Serve.Client.recv c with
            | Ok resp -> resp.SP.result
            | Error msg -> failwith msg)
          conns)
  in
  List.iter Serve.Client.close conns;
  let bit_identical = daemon_replies = serial_replies in
  let stats () =
    match Serve.Client.query ~socket_path SP.Stats with
    | Ok (Ok (SP.Stats_r s)) -> s
    | Ok _ | Error _ -> failwith "daemon stats query failed"
  in
  let co_stats = stats () in
  (* Open loop: offer requests at a fixed rate from a pacing domain,
     regardless of completions, and time each response on the main
     domain — queueing delay under load is part of the latency. *)
  let requests = if quick then 120 else 300 in
  let offered_rps = 200. in
  let open_q = mixing_q ~n:6 0.25 in
  (match Serve.Client.query ~socket_path open_q with
  | Ok (Ok _) -> ()
  | Ok (Error _) | Error _ -> failwith "open-loop warm-up query failed");
  let c =
    match Serve.Client.connect ~socket_path with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  let send_ns = Array.make (requests + 1) 0L in
  let recv_ns = Array.make (requests + 1) 0L in
  let failures = ref 0 in
  let sender =
    Domain.spawn (fun () ->
        let interval_ns = Int64.of_float (1e9 /. offered_rps) in
        let start = Common.Clock.monotonic_ns () in
        for i = 1 to requests do
          let due =
            Int64.add start (Int64.mul interval_ns (Int64.of_int (i - 1)))
          in
          let rec wait () =
            let remain =
              Int64.to_float (Int64.sub due (Common.Clock.monotonic_ns ()))
              /. 1e9
            in
            if remain > 0. then begin
              if remain > 0.001 then Unix.sleepf (remain -. 0.0005);
              wait ()
            end
          in
          wait ();
          send_ns.(i) <- Common.Clock.monotonic_ns ();
          match
            Serve.Client.send c { SP.id = i; deadline_ms = None; query = open_q }
          with
          | Ok () -> ()
          | Error msg -> failwith msg
        done)
  in
  for _ = 1 to requests do
    match Serve.Client.recv c with
    | Ok resp ->
        recv_ns.(resp.SP.req_id) <- Common.Clock.monotonic_ns ();
        (match resp.SP.result with Ok _ -> () | Error _ -> incr failures)
    | Error msg -> failwith msg
  done;
  Domain.join sender;
  Serve.Client.close c;
  let lat_ms =
    Array.init requests (fun k ->
        Int64.to_float (Int64.sub recv_ns.(k + 1) send_ns.(k + 1)) /. 1e6)
  in
  Array.sort compare lat_ms;
  let percentile q =
    lat_ms.(Int.min (requests - 1)
              (int_of_float (Float.round (q *. float_of_int (requests - 1)))))
  in
  let p50 = percentile 0.50 and p99 = percentile 0.99 in
  let last_recv = Array.fold_left Int64.max 0L recv_ns in
  let elapsed_s = Int64.to_float (Int64.sub last_recv send_ns.(1)) /. 1e9 in
  let achieved_rps = float_of_int requests /. elapsed_s in
  let table =
    Experiments.Table.create
      ~title:
        (Printf.sprintf
           "daemon ablation: coalesced panel scheduler (ring n=%d, |S|=%d, \
            beta=%g)"
           n_ring size beta)
      [
        ("workload", Experiments.Table.Left);
        ("serial s", Experiments.Table.Right);
        ("daemon s", Experiments.Table.Right);
        ("speedup", Experiments.Table.Right);
        ("agree", Experiments.Table.Right);
      ]
  in
  Experiments.Table.add_row table
    [
      Printf.sprintf "mixing x%d (distinct eps)" clients;
      Printf.sprintf "%.3f" serial_s;
      Printf.sprintf "%.3f" coalesced_s;
      Printf.sprintf "%.1fx" (serial_s /. coalesced_s);
      Experiments.Table.cell_bool bit_identical;
    ];
  Experiments.Table.add_row table
    [
      Printf.sprintf "open loop (%d req @ %.0f rps)" requests offered_rps;
      "-";
      Printf.sprintf "p50 %.2fms p99 %.2fms" p50 p99;
      Printf.sprintf "%.0f rps" achieved_rps;
      Experiments.Table.cell_bool (!failures = 0);
    ];
  Experiments.Table.add_note table
    (Printf.sprintf
       "coalescing: %d batch(es), widest %d, %d panel step(s). agree = \
        daemon replies bit-identical to serial engine evals."
       co_stats.SP.batches co_stats.SP.max_batch co_stats.SP.panel_steps);
  Experiments.Table.print table;
  (* Open-loop latencies are tracked as seconds, so the regression gate
     bounds p50/p99 drift like any other arm. *)
  let r = record ~bench:"serve_ablation" ~correct:bit_identical in
  record_phase ~label:"daemon ablation"
    [
      r ~workload:"coalescing_x8" ~arm:"serial" ~seconds:serial_s ~speedup:1.0
        ();
      r ~workload:"coalescing_x8" ~arm:"coalesced" ~seconds:coalesced_s
        ~speedup:(serial_s /. coalesced_s) ();
      r ~workload:"open_loop" ~arm:"p50_latency" ~seconds:(p50 /. 1000.)
        ~speedup:1.0 ();
      r ~workload:"open_loop" ~arm:"p99_latency" ~seconds:(p99 /. 1000.)
        ~speedup:1.0 ();
    ]

(* --- Phase 1.10: out-of-core segment ablation --------------------------- *)

(* The lazy cycle walk: three entries per row, uniform stationary law
   (doubly stochastic), and a state count limited by nothing but disk
   — the full profile packs 10^7 states and streams them back block
   by block. *)
let cycle_row n i =
  [ ((i + n - 1) mod n, 0.25); (i, 0.5); ((i + 1) mod n, 0.25) ]

let run_ooc_ablation () =
  let n = if quick then 1 lsl 14 else 10_000_000 in
  let steps = if quick then 50 else 12 in
  let block_nnz = if quick then 1 lsl 12 else Ooc.Segment.default_block_nnz in
  let seg_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "logitdyn-bench-ooc-%d.seg" (Unix.getpid ()))
  in
  let with_pool_opt j f =
    if j <= 1 then f None
    else Exec.Pool.with_pool ~domains:j (fun p -> f (Some p))
  in
  let rm path = try Sys.remove path with Sys_error _ -> () in
  (* Equivalence gate 1: on an overlap size where the in-RAM SpMM arm
     is comfortable, the out-of-core TV sweep must be bit-identical
     across access modes and pool sizes 1/2/4. Tiny blocks force
     column ranges to straddle block boundaries. *)
  let overlap_ok =
    let n' = 1 lsl 12 in
    let chain = Markov.Chain.of_function n' (cycle_row n') in
    let pi = Array.make n' (1. /. float_of_int n') in
    let starts = [ 0; 1; (n' / 2); n' - 1 ] in
    let path = seg_path ^ ".overlap" in
    let _ =
      Ooc.Segment.pack ~block_nnz:(1 lsl 9) ~path ~size:n' ~row:(cycle_row n') ()
    in
    Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
    let reference = Markov.Mixing.tv_curve chain pi ~starts ~steps:30 in
    List.for_all
      (fun access ->
        match Ooc.Segmented_chain.open_ ~access path with
        | Error msg -> failwith msg
        | Ok sc ->
            Fun.protect ~finally:(fun () -> Ooc.Segmented_chain.close sc)
            @@ fun () ->
            let kernel = Ooc.Segmented_chain.kernel sc in
            List.for_all
              (fun j ->
                with_pool_opt j @@ fun pool ->
                Markov.Mixing.tv_curve_kernel ?pool kernel pi ~starts ~steps:30
                = reference)
              [ 1; 2; 4 ])
      [ Ooc.Segment.Mmap; Ooc.Segment.Stream ]
  in
  (* Equivalence gate 2: the fixed-point workloads (π by power
     iteration, t_mix to full convergence) on a size where running
     them to the end is cheap — the kernel path must land on the very
     same iterates. *)
  let fixpoint_ok =
    let n' = 128 in
    let chain = Markov.Chain.of_function n' (cycle_row n') in
    let pi = Array.make n' (1. /. float_of_int n') in
    let path = seg_path ^ ".fix" in
    let _ =
      Ooc.Segment.pack ~block_nnz:24 ~path ~size:n' ~row:(cycle_row n') ()
    in
    Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
    match Ooc.Segmented_chain.open_ path with
    | Error msg -> failwith msg
    | Ok sc ->
        Fun.protect ~finally:(fun () -> Ooc.Segmented_chain.close sc)
        @@ fun () ->
        let kernel = Ooc.Segmented_chain.kernel sc in
        let power_ok =
          Markov.Stationary.by_power_kernel kernel
          = Markov.Stationary.by_power chain
        in
        let mix_ref = Markov.Mixing.mixing_time chain pi ~starts:[ 0 ] in
        let mix_ok =
          List.for_all
            (fun j ->
              with_pool_opt j @@ fun pool ->
              Markov.Mixing.mixing_time_kernel ?pool kernel pi ~starts:[ 0 ]
              = mix_ref)
            [ 1; 4 ]
        in
        power_ok && mix_ok
  in
  (* Full-size arms: pack once, then the same TV sweep through each
     access mode. The stream arm runs first so its RSS sample does not
     share the address space with a still-mapped copy of the file. *)
  let info, t_pack =
    time (fun () ->
        Ooc.Segment.pack ~block_nnz ~path:seg_path ~size:n ~row:(cycle_row n) ())
  in
  Fun.protect ~finally:(fun () -> rm seg_path) @@ fun () ->
  let pi = Array.make n (1. /. float_of_int n) in
  let starts = [ 0 ] in
  let run_arm ~access ~pool_jobs =
    match Ooc.Segmented_chain.open_ ~access seg_path with
    | Error msg -> failwith msg
    | Ok sc ->
        Fun.protect ~finally:(fun () -> Ooc.Segmented_chain.close sc)
        @@ fun () ->
        let kernel = Ooc.Segmented_chain.kernel sc in
        with_pool_opt pool_jobs @@ fun pool ->
        (* Compact, then reset the VmHWM watermark, so the sample is
           this arm's own peak, not a leftover from pack or an
           earlier arm. *)
        Gc.compact ();
        ignore (Common.Rss.reset_peak () : bool);
        let curve, t =
          time (fun () ->
              Markov.Mixing.tv_curve_kernel ?pool kernel pi ~starts ~steps)
        in
        (curve, t, Common.Rss.peak_kb ())
  in
  let curve_stream, t_stream, rss_stream =
    run_arm ~access:Ooc.Segment.Stream ~pool_jobs:1
  in
  let curve_mmap, t_mmap, rss_mmap =
    run_arm ~access:Ooc.Segment.Mmap ~pool_jobs:1
  in
  let curve_pool, t_pool, _ = run_arm ~access:Ooc.Segment.Mmap ~pool_jobs:jobs in
  let arms_agree = curve_stream = curve_mmap && curve_pool = curve_mmap in
  let equivalent = overlap_ok && fixpoint_ok && arms_agree in
  let pp_rss = function
    | Some kb -> Printf.sprintf "%d kB" kb
    | None -> "n/a"
  in
  let table =
    Experiments.Table.create
      ~title:
        (Printf.sprintf
           "out-of-core ablation: segmented vs in-RAM kernels (cycle walk, \
            |S|=%d, nnz=%d, %d blocks, %d domains)"
           info.Ooc.Segment.b_n info.Ooc.Segment.b_nnz info.Ooc.Segment.b_blocks
           jobs)
      [
        ("workload / arm", Experiments.Table.Left);
        ("seconds", Experiments.Table.Right);
        ("speedup", Experiments.Table.Right);
        ("peak RSS", Experiments.Table.Right);
        ("agree", Experiments.Table.Right);
      ]
  in
  let add name seconds speedup rss agree =
    Experiments.Table.add_row table
      [
        name;
        Printf.sprintf "%.3f" seconds;
        Printf.sprintf "%.2fx" speedup;
        rss;
        Experiments.Table.cell_bool agree;
      ]
  in
  add "pack / two-pass stream build" t_pack 1.0 "-" true;
  add
    (Printf.sprintf "tv_curve(%d) / mmap serial" steps)
    t_mmap 1.0 (pp_rss rss_mmap) arms_agree;
  add
    (Printf.sprintf "tv_curve(%d) / mmap pooled" steps)
    t_pool (t_mmap /. t_pool) "-" arms_agree;
  add
    (Printf.sprintf "tv_curve(%d) / stream serial" steps)
    t_stream (t_mmap /. t_stream) (pp_rss rss_stream) arms_agree;
  Experiments.Table.add_note table
    (Printf.sprintf
       "segment file: %d bytes on disk. agree = all arms bit-identical; \
        overlap equivalence vs in-RAM SpMM (pools 1/2/4, mmap+stream): %s; \
        fixed-point equivalence (by_power, mixing_time): %s."
       info.Ooc.Segment.b_bytes
       (if overlap_ok then "yes" else "NO")
       (if fixpoint_ok then "yes" else "NO"));
  Experiments.Table.print table;
  (* The stream arm's memory-bound claim rides the trajectory via
     [peak_rss_kb]; every arm shares the equivalence bit. *)
  let r = record ~bench:"ooc_ablation" ~correct:equivalent in
  record_phase ~label:"out-of-core ablation"
    [
      r ~workload:"pack" ~arm:"stream_build" ~seconds:t_pack ~speedup:1.0 ();
      r ?peak_rss_kb:rss_mmap ~workload:"tv_curve" ~arm:"mmap_serial"
        ~seconds:t_mmap ~speedup:1.0 ();
      r ~workload:"tv_curve" ~arm:"mmap_pooled" ~seconds:t_pool
        ~speedup:(t_mmap /. t_pool) ~jobs ();
      r ?peak_rss_kb:rss_stream ~workload:"tv_curve" ~arm:"stream_serial"
        ~seconds:t_stream ~speedup:(t_mmap /. t_stream) ();
    ]

(* --- Phase 1.11: β-family ablation ------------------------------------- *)

(* β-grids are the repo's dominant workload shape, so this phase races
   the family layer against the per-point paths it replaces: (a) cold
   grid build — one chain_family (utilities tabulated once, shared
   structure) vs an independent chain per β; (b) multi-β panel
   advancement — the fused shared-structure SpMM vs per-plane
   evolve_many_into; (c) the structure-once family store layout, cold
   vs warm. Every arm is gated on bit-identity against its per-β
   counterpart. *)
let run_family_ablation () =
  (* The paper's Section 5 clique coordination game: every player's
     utility sums over n-1 neighbours, so the per-state utility
     tabulation the family shares across the grid is a real fraction
     of the build — the regime β-families exist for. *)
  let n_players = if quick then 8 else 10 in
  let grid_points = if quick then 8 else 12 in
  let betas =
    List.init grid_points (fun i -> 0.05 +. (0.05 *. float_of_int i))
  in
  let sweep_steps = if quick then 200 else 400 in
  let desc =
    Games.Graphical.create (Graphs.Generators.clique n_players)
      (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
  in
  let space = Games.Graphical.space desc in
  let phi = Games.Graphical.potential desc in
  (* Deliberately NOT [Graphical.to_game]: that tabulates every utility
     into a per-player table for spaces ≤ 2^22, which already amortises
     utility evaluation across the grid at game level. β-families exist
     for the regime where that table is unaffordable (large spaces,
     out-of-core sweeps) — modelled here by keeping the utility a real
     neighbour-sum computation, so per-point rebuilds pay it at every β
     while [chain_family] tabulates it once. The floats are the same
     either way, so the bit-identity gates are unaffected. *)
  let graph = Games.Graphical.graph desc in
  let basic = Games.Graphical.basic desc in
  let game =
    Games.Game.create
      ~name:(Printf.sprintf "clique-coordination-untabulated(n=%d)" n_players)
      space
      (fun player idx ->
        let mine = Games.Strategy_space.player_strategy space idx player in
        List.fold_left
          (fun acc v ->
            acc
            +. Games.Coordination.payoff basic mine
                 (Games.Strategy_space.player_strategy space idx v))
          0.
          (Graphs.Graph.neighbors graph player))
  in
  let size = Games.Game.size game in
  Exec.Pool.with_pool ~domains:jobs @@ fun pool ->
  (* (a) Cold β-grid build: P independent chain builds vs one family. *)
  let (per_point, t_per_point), (family, t_family) =
    time_pair
      ~reps:(if quick then 25 else 9)
      (fun () -> List.map (fun beta -> Logit.Logit_dynamics.chain ~pool game ~beta) betas)
      (fun () -> Logit.Logit_dynamics.chain_family ~pool game ~betas)
  in
  let build_identical =
    List.for_all Fun.id
      (List.mapi
         (fun i c -> chain_equal c (Markov.Family.plane family i))
         per_point)
  in
  (* (headline) Cold β-grid sweep — the workload [mixing --betas] and
     E2 actually run: build every grid point's chain and settle its
     mixing time from the extremal (consensus) starts. The per-point
     arm rebuilds from the game at each β; the family arm tabulates
     utilities once and settles the whole grid in one fused panel
     sweep. *)
  let mix_starts = [ 0; size - 1 ] in
  let mix_eps = 0.25 in
  let mix_max_steps = 50_000 in
  let sweep_per_point () =
    List.map
      (fun beta ->
        let chain = Logit.Logit_dynamics.chain ~pool game ~beta in
        let pi = Logit.Gibbs.stationary space phi ~beta in
        Markov.Mixing.mixing_time ~pool ~eps:mix_eps ~max_steps:mix_max_steps
          chain pi ~starts:mix_starts)
      betas
  in
  let sweep_family () =
    let fam = Logit.Logit_dynamics.chain_family ~pool game ~betas in
    let pis =
      Array.of_list
        (List.map (fun beta -> Logit.Gibbs.stationary space phi ~beta) betas)
    in
    Array.to_list
      (Markov.Mixing.family_mixing_times ~pool ~eps:mix_eps
         ~max_steps:mix_max_steps fam ~pis ~starts:mix_starts)
  in
  let (pp_times, t_pp_sweep), (fam_times, t_fam_sweep) =
    time_pair ~reps:(if quick then 9 else 5) sweep_per_point sweep_family
  in
  let sweep_identical = pp_times = fam_times in
  (* (b) Multi-β panel advancement: narrow panels (the daemon's
     regime, where the shared index structure rather than the panel
     dominates the traffic), [sweep_steps] steps — one
     evolve_many_into per plane per step vs the fused multi-plane
     traversal that reads each column's metadata once for the whole
     grid. *)
  let np = grid_points in
  let k = Int.min size 32 in
  let mk_panels () =
    Array.init np (fun _ ->
        let p = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (k * size) in
        Bigarray.Array1.fill p 0.;
        for r = 0 to k - 1 do
          Bigarray.Array1.set p ((r * size) + r) 1.
        done;
        p)
  in
  let scratch_panels () =
    Array.init np (fun _ ->
        Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (k * size))
  in
  let advance_loop body =
    let src = ref (mk_panels ()) and dst = ref (scratch_panels ()) in
    for _ = 1 to sweep_steps do
      body !src !dst;
      let previous = !src in
      src := !dst;
      dst := previous
    done;
    !src
  in
  let run_sequential () =
    advance_loop (fun src dst ->
        List.iteri
          (fun p c -> Markov.Chain.evolve_many_into ~pool c ~k ~src:src.(p) ~dst:dst.(p))
          per_point)
  in
  let run_fused () =
    advance_loop (fun src dst ->
        Markov.Family.evolve_many_into ~pool family ~k ~src ~dst)
  in
  let (seq_panels, t_seq), (fused_panels, t_fused) =
    time_pair ~reps:(if quick then 9 else 5) run_sequential run_fused
  in
  let panels_identical =
    let ok = ref true in
    Array.iteri
      (fun p a ->
        let b = fused_panels.(p) in
        for i = 0 to (k * size) - 1 do
          (* Bit-equality, not tolerance: the fused kernel's contract. *)
          if Int64.bits_of_float (Bigarray.Array1.get a i)
             <> Int64.bits_of_float (Bigarray.Array1.get b i)
          then ok := false
        done)
      seq_panels;
    !ok
  in
  (* (c) The structure-once store layout: cold build-and-file vs warm
     decode of structure + per-β planes. *)
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "logitdyn-bench-family-%d" (Unix.getpid ()))
  in
  let cas = Store.Cas.open_ ~dir:root () in
  ignore (Store.Cas.clear cas);
  let through_store () =
    Markov.Family_codec.cached ~store:cas ~game:"bench-ring-family" ~size ~betas
      ~variant:"sequential-logit" (fun () ->
        Logit.Logit_dynamics.chain_family ~pool game ~betas)
  in
  let f_cold, t_cold = time through_store in
  let f_warm, t_warm = time through_store in
  let store_identical =
    List.for_all Fun.id
      (List.mapi
         (fun i _ ->
           chain_equal (Markov.Family.plane f_cold i) (Markov.Family.plane f_warm i)
           && chain_equal (Markov.Family.plane f_warm i) (Markov.Family.plane family i))
         betas)
  in
  ignore (Store.Cas.clear cas);
  let table =
    Experiments.Table.create
      ~title:
        (Printf.sprintf
           "beta-family ablation: per-point vs shared structure (clique n=%d, \
            |S|=%d, %d grid points, %d domains)"
           n_players size grid_points jobs)
      [
        ("workload / arm", Experiments.Table.Left);
        ("seconds", Experiments.Table.Right);
        ("speedup", Experiments.Table.Right);
        ("bit-identical", Experiments.Table.Right);
      ]
  in
  let add name seconds speedup bit =
    Experiments.Table.add_row table
      [
        name;
        Printf.sprintf "%.4f" seconds;
        Printf.sprintf "%.2fx" speedup;
        Experiments.Table.cell_bool bit;
      ]
  in
  add "beta_grid_sweep / per_point" t_pp_sweep 1.0 true;
  add "beta_grid_sweep / family" t_fam_sweep (t_pp_sweep /. t_fam_sweep)
    sweep_identical;
  add "beta_grid_build / per_point" t_per_point 1.0 true;
  add "beta_grid_build / family" t_family (t_per_point /. t_family) build_identical;
  add
    (Printf.sprintf "panel_sweep(%d) / sequential" sweep_steps)
    t_seq 1.0 true;
  add
    (Printf.sprintf "panel_sweep(%d) / fused" sweep_steps)
    t_fused (t_seq /. t_fused) panels_identical;
  add "family_store / cold" t_cold 1.0 true;
  add "family_store / warm" t_warm (t_cold /. t_warm) store_identical;
  Experiments.Table.add_note table
    (Printf.sprintf "shared structure: %b; bit-identical = family path vs the \
                     independent per-beta path, gated."
       (Markov.Family.shared_structure family));
  Experiments.Table.print table;
  if not (sweep_identical && build_identical && panels_identical && store_identical)
  then Printf.printf "WARNING: a family arm diverged from its per-beta build!\n";
  let pair workload ~reference ~arm t_ref t_arm correct =
    let r = record ~bench:"family_ablation" ~workload ~jobs in
    [
      r ~arm:reference ~seconds:t_ref ~speedup:1.0 ~correct:true ();
      r ~arm ~seconds:t_arm ~speedup:(t_ref /. t_arm) ~correct ();
    ]
  in
  record_phase ~label:"beta-family ablation"
    (pair "beta_grid_sweep" ~reference:"per_point" ~arm:"family" t_pp_sweep
       t_fam_sweep sweep_identical
    @ pair "beta_grid_build" ~reference:"per_point" ~arm:"family" t_per_point
        t_family build_identical
    @ pair "panel_sweep" ~reference:"sequential" ~arm:"fused" t_seq t_fused
        panels_identical
    @ pair "family_store" ~reference:"cold" ~arm:"warm" t_cold t_warm
        store_identical)

let run_micro () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"kernels" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | _ -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, estimate, r2) :: acc)
      results []
  in
  let table =
    Experiments.Table.create ~title:"micro-benchmarks (Bechamel, OLS estimate)"
      [
        ("benchmark", Experiments.Table.Left);
        ("ns/run", Experiments.Table.Right);
        ("r^2", Experiments.Table.Right);
      ]
  in
  List.iter
    (fun (name, ns, r2) ->
      Experiments.Table.add_row table
        [ name; Printf.sprintf "%.1f" ns; Printf.sprintf "%.4f" r2 ])
    (List.sort compare rows);
  Experiments.Table.print table

(* The ablation phases, in full-run order; --phase NAME runs one alone. *)
let phases =
  [
    ("store", "phase 1.7: artifact store ablation (cold vs warm)",
     run_store_ablation);
    ("spmm", "phase 1.8: SpMM kernel ablation (serial vs pooled)",
     run_spmm_ablation);
    ("serve", "phase 1.9: daemon load bench (coalescing + open loop)",
     run_serve_ablation);
    ("ooc", "phase 1.10: out-of-core segment ablation (mmap + stream)",
     run_ooc_ablation);
    ("family", "phase 1.11: beta-family ablation (per-point vs shared structure)",
     run_family_ablation);
  ]

(* The --phase selection, checked before anything runs: an unknown or
   repeated name exits 2 with the valid names. *)
let selected_phase () =
  let usage msg =
    Printf.eprintf "bench: %s; valid phases: %s\n" msg
      (String.concat ", " (List.map (fun (name, _, _) -> name) phases));
    exit 2
  in
  match phase_args with
  | [] -> None
  | [ name ] -> (
      match List.find_opt (fun (n, _, _) -> n = name) phases with
      | Some _ as phase -> phase
      | None -> usage (Printf.sprintf "unknown phase %S" name))
  | _ -> usage "--phase given more than once"

let () =
  let phase = selected_phase () in
  Printf.printf "logitdyn benchmark harness%s\n"
    (if quick then " (quick mode)" else "");
  match phase with
  | Some (_, banner, run) ->
      Printf.printf "%s\n%!" banner;
      run ()
  | None ->
      Printf.printf
        "phase 1: regenerating every experiment table (E1..E9, X1..X10)\n";
      let t0 = Common.Clock.monotonic_ns () in
      Experiments.Registry.run_all ~quick ();
      Printf.printf "\nphase 1 elapsed: %.1fs\n" (Common.Clock.span_s ~since:t0);
      Printf.printf "\nphase 1.5: serial vs parallel ablation (%d domains)\n%!" jobs;
      run_ablation ();
      List.iter
        (fun (_, banner, run) ->
          Printf.printf "\n%s\n%!" banner;
          run ())
        phases;
      if not skip_micro then begin
        Printf.printf "\nphase 2: micro-benchmarks\n%!";
        run_micro ()
      end

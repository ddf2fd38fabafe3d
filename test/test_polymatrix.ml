open Helpers
open Games

(* ----- Polymatrix ----- *)

let polymatrix_matches_cut_game () =
  (* Anti-coordination payoffs reproduce the cut game exactly. *)
  let graph = Graphs.Generators.ring 5 in
  let poly =
    Polymatrix.create graph ~strategies:2 ~edge_payoff:(fun _ _ a b ->
        if a = b then 0. else 1.)
  in
  let cut = Cut_game.create graph in
  let pg = Polymatrix.to_game poly and cg = Cut_game.to_game cut in
  Strategy_space.iter (Polymatrix.space poly) (fun idx ->
      for i = 0 to 4 do
        check_float "same utilities" (Game.utility cg i idx) (Game.utility pg i idx)
      done;
      check_float ~tol:1e-12 "potentials differ by constant"
        (Cut_game.potential cut idx)
        (Polymatrix.potential poly idx))

let polymatrix_is_potential =
  QCheck.Test.make ~name:"random polymatrix games have exact potentials" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let n = 3 + Prob.Rng.int r 3 in
      let graph = Graphs.Generators.erdos_renyi r n 0.6 in
      (* Random shared payoff per (edge, strategy pair), fixed by memo. *)
      let memo = Hashtbl.create 32 in
      let edge_payoff u v a b =
        let key = (u, v, a, b) in
        match Hashtbl.find_opt memo key with
        | Some x -> x
        | None ->
            let x = Prob.Rng.float r in
            Hashtbl.add memo key x;
            x
      in
      let poly = Polymatrix.create graph ~strategies:2 ~edge_payoff in
      Potential.verify (Polymatrix.to_game poly) (Polymatrix.potential poly))

let ferromagnet_matches_ising () =
  (* +J polymatrix = graphical coordination with delta = 2J up to a
     potential constant. *)
  let graph = Graphs.Generators.ring 5 in
  let j = 0.8 in
  let ferro = Polymatrix.ferromagnet graph ~coupling:j in
  let ising = Graphical.ising ~delta:(2. *. j) graph in
  let space = Polymatrix.space ferro in
  let shift =
    Polymatrix.potential ferro 0 -. Graphical.potential ising 0
  in
  Strategy_space.iter space (fun idx ->
      check_float ~tol:1e-12 "potential equal up to constant" shift
        (Polymatrix.potential ferro idx -. Graphical.potential ising idx))

let spin_glass_couplings () =
  let r = rng () in
  let graph = Graphs.Generators.clique 5 in
  let glass, js = Polymatrix.spin_glass r graph ~coupling:2.0 in
  check_int "one coupling per edge" 10 (Array.length js);
  Array.iter
    (fun j -> check_true "magnitude" (Common.feq ~eps:1e-12 (Float.abs j) 2.0))
    js;
  check_true "is potential game"
    (Potential.verify (Polymatrix.to_game glass) (Polymatrix.potential glass))

let frustration_counts () =
  let graph = Graphs.Generators.ring 3 in
  let mk signs =
    let poly =
      Polymatrix.create graph ~strategies:2 ~edge_payoff:(fun _ _ a b ->
          if a = b then 1. else -1.)
    in
    Polymatrix.frustrated_triangles poly ~couplings:signs
  in
  check_int "all positive: none" 0 (mk [| 1.; 1.; 1. |]);
  check_int "one negative: frustrated" 1 (mk [| -1.; 1.; 1. |]);
  check_int "two negative: balanced" 0 (mk [| -1.; -1.; 1. |]);
  check_int "three negative: frustrated" 1 (mk [| -1.; -1.; -1. |])

(* ----- Transfer matrix ----- *)

let coordination_phi delta0 delta1 =
  Coordination.edge_potential (Coordination.of_deltas ~delta0 ~delta1)

let transfer_matches_enumeration () =
  let phi = coordination_phi 1.0 0.7 in
  List.iter
    (fun beta ->
      let tm = Logit.Transfer_matrix.create ~strategies:2 ~beta phi in
      let n = 7 in
      let desc =
        Graphical.create (Graphs.Generators.ring n)
          (Coordination.of_deltas ~delta0:1.0 ~delta1:0.7)
      in
      let space = Graphical.space desc in
      let direct =
        Logit.Gibbs.log_partition space (Graphical.potential desc) ~beta
      in
      check_float ~tol:1e-9 "log partition" direct
        (Logit.Transfer_matrix.log_partition tm ~n);
      let pi = Logit.Gibbs.stationary space (Graphical.potential desc) ~beta in
      let site0 = ref 0. in
      Array.iteri
        (fun idx p ->
          if Strategy_space.player_strategy space idx 0 = 0 then
            site0 := !site0 +. p)
        pi;
      check_float ~tol:1e-9 "site marginal" !site0
        (Logit.Transfer_matrix.site_marginal tm ~n).(0))
    [ 0.0; 0.9; 5.0 ]

let transfer_pair_marginal_consistent () =
  let phi = coordination_phi 1.0 1.0 in
  let tm = Logit.Transfer_matrix.create ~strategies:2 ~beta:1.5 phi in
  let marginal = Logit.Transfer_matrix.pair_marginal tm ~n:20 in
  let total = ref 0. in
  for a = 0 to 1 do
    for b = 0 to 1 do
      let p = Linalg.Mat.get marginal a b in
      check_true "non-negative" (p >= 0.);
      total := !total +. p
    done
  done;
  check_float ~tol:1e-12 "sums to one" 1. !total;
  (* Symmetric game: the pair marginal is symmetric too. *)
  check_float ~tol:1e-9 "symmetry"
    (Linalg.Mat.get marginal 0 1)
    (Linalg.Mat.get marginal 1 0)

let transfer_huge_ring_stable () =
  let phi = coordination_phi 1.0 1.0 in
  let tm = Logit.Transfer_matrix.create ~strategies:2 ~beta:3.0 phi in
  let logz = Logit.Transfer_matrix.log_partition tm ~n:5_000 in
  check_true "finite" (Float.is_finite logz);
  (* Exact: log Z = n*log(lambda_1) + o(1) with lambda_1 = e^beta + 1
     for the symmetric 2x2 transfer matrix. *)
  check_float ~tol:1e-6 "Perron value" (5_000. *. log (exp 3. +. 1.)) logz;
  let edge = Logit.Transfer_matrix.expected_edge_potential tm ~n:5_000 in
  (* Thermodynamic identity: E[phi_edge] = -d(log lambda_1)/d(beta)
     = -e^beta/(e^beta + 1). *)
  check_float ~tol:1e-6 "edge potential" (-.exp 3. /. (exp 3. +. 1.)) edge

let transfer_correlation_length_grows () =
  let phi = coordination_phi 1.0 1.0 in
  let xi beta =
    Logit.Transfer_matrix.correlation_length
      (Logit.Transfer_matrix.create ~strategies:2 ~beta phi)
  in
  check_true "increasing in beta" (xi 0.5 < xi 1.5 && xi 1.5 < xi 3.0)

let transfer_rejects_asymmetric () =
  check_raises_invalid "asymmetric phi" (fun () ->
      ignore
        (Logit.Transfer_matrix.create ~strategies:2 ~beta:1.
           (fun a b -> if a < b then 1. else 0.)))

let x9_smoke () =
  let tables = (Experiments.Registry.find "x9").Experiments.Registry.run ~quick:true in
  check_int "one table" 1 (List.length tables)

let suites =
  [
    ( "games.polymatrix",
      [
        test "matches cut game" polymatrix_matches_cut_game;
        test "ferromagnet = ising" ferromagnet_matches_ising;
        test "spin glass couplings" spin_glass_couplings;
        test "frustration counting" frustration_counts;
        test "x9 smoke" x9_smoke;
        qcheck polymatrix_is_potential;
      ] );
    ( "logit.transfer_matrix",
      [
        test "matches enumeration" transfer_matches_enumeration;
        test "pair marginal consistent" transfer_pair_marginal_consistent;
        test "huge ring stable" transfer_huge_ring_stable;
        test "correlation length grows" transfer_correlation_length_grows;
        test "rejects asymmetric phi" transfer_rejects_asymmetric;
      ] );
  ]

(* ----- Metropolis (appended) ----- *)

let metropolis_same_gibbs =
  QCheck.Test.make ~name:"Metropolis is reversible wrt the same Gibbs measure"
    ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let game, phi = random_potential_game ~players:3 ~strategies:2 seed in
      let beta = 1.2 in
      let chain = Logit.Metropolis.chain game ~beta in
      let pi = Logit.Gibbs.stationary (Game.space game) phi ~beta in
      Markov.Stationary.residual chain pi < 1e-10
      && Markov.Chain.is_reversible chain pi)

let metropolis_rows_stochastic () =
  let game = Zoo.rock_paper_scissors in
  Strategy_space.iter (Game.space game) (fun idx ->
      let row = Logit.Metropolis.transition_row game ~beta:1.7 idx in
      let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. row in
      check_float ~tol:1e-12 "row mass" 1. total)

let metropolis_accepts_improvements () =
  (* From the off-diagonal profile of a coordination game, a proposal
     into an equilibrium is always accepted. *)
  let game = Coordination.to_game (Coordination.of_deltas ~delta0:1. ~delta1:1.) in
  let sigma = Logit.Metropolis.update_distribution game ~beta:3. ~player:0 1 in
  (* player 0 plays 1 against 0: switching to 0 improves -> accept = 1. *)
  check_float ~tol:1e-12 "improvement accepted" 1. sigma.(0)

let metropolis_peskun_faster () =
  let desc =
    Graphical.create (Graphs.Generators.ring 5)
      (Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
  in
  let game = Graphical.to_game desc in
  let beta = 2.0 in
  let pi = Logit.Gibbs.stationary (Game.space game) (Graphical.potential desc) ~beta in
  let t_hb =
    Option.get
      (Markov.Mixing.mixing_time_all (Logit.Logit_dynamics.chain game ~beta) pi)
  in
  let t_mh =
    Option.get (Markov.Mixing.mixing_time_all (Logit.Metropolis.chain game ~beta) pi)
  in
  check_true "metropolis at least as fast" (t_mh <= t_hb)

let metropolis_step_law () =
  let game = Coordination.to_game (Coordination.of_deltas ~delta0:1. ~delta1:0.6) in
  let beta = 1.1 in
  let chain = Logit.Metropolis.chain game ~beta in
  let r = rng () in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let next = Logit.Metropolis.step r game ~beta 1 in
    counts.(next) <- counts.(next) + 1
  done;
  Array.iteri
    (fun j c ->
      check_float ~tol:0.012 "one-step law"
        (Markov.Chain.prob chain 1 j)
        (float_of_int c /. float_of_int n))
    counts

(* ----- Perfect sampling (appended) ----- *)

let cftp_attractive_classes () =
  let ring = Graphical.create (Graphs.Generators.ring 4)
      (Coordination.of_deltas ~delta0:1.0 ~delta1:0.6) in
  check_true "coordination attractive"
    (Logit.Perfect_sampling.is_attractive (Graphical.to_game ring) ~beta:1.5);
  let cut = Cut_game.to_game (Cut_game.create (Graphs.Generators.ring 4)) in
  check_false "anti-coordination not attractive"
    (Logit.Perfect_sampling.is_attractive cut ~beta:1.5)

let cftp_samples_exact () =
  let desc =
    Graphical.create (Graphs.Generators.path 4)
      (Coordination.of_deltas ~delta0:1.0 ~delta1:0.8)
  in
  let game = Graphical.to_game desc in
  let beta = 1.2 in
  let r = rng () in
  let xs = Logit.Perfect_sampling.samples r game ~beta ~count:20_000 in
  let emp = Prob.Empirical.create (Game.size game) in
  Array.iter (fun x -> Prob.Empirical.add emp x) xs;
  let pi = Logit.Gibbs.stationary (Game.space game) (Graphical.potential desc) ~beta in
  check_true "TV within sampling noise"
    (Prob.Empirical.tv_against emp (Prob.Dist.of_weights pi) < 0.03)

let cftp_certificate_positive () =
  let desc =
    Graphical.create (Graphs.Generators.ring 4)
      (Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
  in
  let game = Graphical.to_game desc in
  let r = rng () in
  let _, window = Logit.Perfect_sampling.coalescence_epoch r game ~beta:1.0 in
  check_true "window is a power of two" (window land (window - 1) = 0);
  check_true "window positive" (window >= 1)

let cftp_rejects_nonbinary () =
  check_raises_invalid "non-binary" (fun () ->
      ignore
        (Logit.Perfect_sampling.sample (rng ()) Zoo.rock_paper_scissors ~beta:1.))

(* At β = 1e8 the extreme chains of a coordination ring never meet
   (t_mix = e^{βζ(1±o(1))}), so the default epoch bound must end the
   run with No_convergence after bounded work — 2^20 stored moves —
   instead of doubling the move buffer until memory runs out. *)
let cftp_default_bound_gives_up () =
  let game =
    Graphical.to_game
      (Graphical.create (Graphs.Generators.ring 3)
         (Coordination.of_deltas ~delta0:1.0 ~delta1:1.0))
  in
  let t0 = Common.Clock.monotonic_ns () in
  (match Logit.Perfect_sampling.sample (rng ()) game ~beta:1e8 with
  | _ -> Alcotest.fail "expected No_convergence"
  | exception Common.No_convergence _ -> ());
  check_true "gives up within seconds" (Common.Clock.span_s ~since:t0 < 20.)

let x10_smoke () =
  let tables = (Experiments.Registry.find "x10").Experiments.Registry.run ~quick:true in
  check_int "two tables" 2 (List.length tables)

let suites =
  suites
  @ [
      ( "logit.metropolis",
        [
          test "rows stochastic" metropolis_rows_stochastic;
          test "accepts improvements" metropolis_accepts_improvements;
          test "peskun faster" metropolis_peskun_faster;
          test "step law" metropolis_step_law;
          qcheck metropolis_same_gibbs;
        ] );
      ( "logit.perfect_sampling",
        [
          test "attractive classes" cftp_attractive_classes;
          test "samples are exact" cftp_samples_exact;
          test "certificate" cftp_certificate_positive;
          test "rejects non-binary" cftp_rejects_nonbinary;
          test "default bound gives up at huge beta" cftp_default_bound_gives_up;
          test "x10 smoke" x10_smoke;
        ] );
    ]

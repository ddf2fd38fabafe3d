open Helpers
open Games

let coordination_game ?(delta0 = 1.0) ?(delta1 = 0.5) () =
  Coordination.to_game (Coordination.of_deltas ~delta0 ~delta1)

(* ----- Logit_dynamics ----- *)

let update_distribution_normalises () =
  let game = coordination_game () in
  List.iter
    (fun beta ->
      Strategy_space.iter (Game.space game) (fun idx ->
          for player = 0 to 1 do
            let sigma =
              Logit.Logit_dynamics.update_distribution game ~beta ~player idx
            in
            let total = Array.fold_left ( +. ) 0. sigma in
            check_float ~tol:1e-12 "normalised" 1. total;
            Array.iter (fun p -> check_true "non-negative" (p >= 0.)) sigma
          done))
    [ 0.0; 1.0; 50.0 ]

let update_distribution_beta_zero_uniform () =
  let game = Zoo.rock_paper_scissors in
  let sigma = Logit.Logit_dynamics.update_distribution game ~beta:0. ~player:0 0 in
  check_array ~tol:1e-12 "uniform at beta 0" (Array.make 3 (1. /. 3.)) sigma

let update_distribution_beta_large_best_response () =
  let game = coordination_game () in
  (* Against an opponent playing 0, strategy 0 pays 1 > 0: at large beta
     the update concentrates there. *)
  let sigma = Logit.Logit_dynamics.update_distribution game ~beta:100. ~player:0 0 in
  check_float ~tol:1e-12 "concentrates" 1. sigma.(0)

let update_distribution_formula () =
  (* Two-point formula: sigma(y)/sigma(x') = exp(beta (u(y) - u(x'))). *)
  let game = coordination_game () in
  let beta = 1.3 in
  let sigma = Logit.Logit_dynamics.update_distribution game ~beta ~player:0 0 in
  let u0 = Game.utility game 0 0
  and u1 = Game.utility game 0 (Strategy_space.replace (Game.space game) 0 0 1) in
  check_float ~tol:1e-12 "ratio" (exp (beta *. (u1 -. u0))) (sigma.(1) /. sigma.(0))

let update_distribution_huge_beta_no_nan () =
  let game = coordination_game () in
  let sigma = Logit.Logit_dynamics.update_distribution game ~beta:1e6 ~player:0 0 in
  Array.iter (fun p -> check_false "no nan" (Float.is_nan p)) sigma;
  check_float ~tol:1e-12 "mass 1" 1. (Array.fold_left ( +. ) 0. sigma);
  (* A tie at the top: strategies 0 and 1 pay 2, strategy 2 pays 1. At
     these β the naive log-normaliser [m + log 2] rounds to [m], so the
     law must still come out as the β → ∞ limit, half on each of the
     tied best responses. *)
  let tied =
    Game.create ~name:"tied" (Strategy_space.uniform ~players:1 ~strategies:3)
      (fun _ idx -> if idx = 2 then 1. else 2.)
  in
  List.iter
    (fun beta ->
      let sigma = Logit.Logit_dynamics.update_distribution tied ~beta ~player:0 0 in
      let what = Printf.sprintf "beta=%g" beta in
      Array.iter (fun p -> check_false (what ^ ": no nan") (Float.is_nan p)) sigma;
      check_float ~tol:1e-12 (what ^ ": mass 1") 1. (Array.fold_left ( +. ) 0. sigma);
      check_array ~tol:1e-12 (what ^ ": tie split evenly") [| 0.5; 0.5; 0. |] sigma)
    [ 1e8; 1e20; 1e300 ]

let transition_row_stochastic () =
  let game = Zoo.battle_of_sexes in
  List.iter
    (fun beta ->
      Strategy_space.iter (Game.space game) (fun idx ->
          let row = Logit.Logit_dynamics.transition_row game ~beta idx in
          let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. row in
          check_float ~tol:1e-12 "row mass" 1. total))
    [ 0.0; 2.0 ]

let transition_matches_eq3 () =
  (* Check P(x, y) = sigma_i(y_i | x)/n for a unilateral deviation. *)
  let game = coordination_game () in
  let beta = 0.8 in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let space = Game.space game in
  Strategy_space.iter space (fun idx ->
      for i = 0 to 1 do
        let sigma = Logit.Logit_dynamics.update_distribution game ~beta ~player:i idx in
        Array.iteri
          (fun a p ->
            let target = Strategy_space.replace space idx i a in
            if target <> idx then
              check_float ~tol:1e-12 "eq (3)" (p /. 2.)
                (Markov.Chain.prob chain idx target))
          sigma
      done)

let chain_is_ergodic () =
  let game = Zoo.matching_pennies in
  let chain = Logit.Logit_dynamics.chain game ~beta:3. in
  check_true "irreducible" (Markov.Chain.is_irreducible chain);
  check_true "aperiodic" (Markov.Chain.is_aperiodic chain)

let step_simulation_consistent () =
  (* Empirical one-step law from direct simulation matches the chain row. *)
  let game = coordination_game () in
  let beta = 1.0 in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let r = rng () in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let next = Logit.Logit_dynamics.step r game ~beta 0 in
    counts.(next) <- counts.(next) + 1
  done;
  Array.iteri
    (fun j c ->
      check_float ~tol:0.01 (Printf.sprintf "one-step law %d" j)
        (Markov.Chain.prob chain 0 j)
        (float_of_int c /. float_of_int n))
    counts

let best_response_probability_monotone () =
  let game = coordination_game () in
  let p0 = Logit.Logit_dynamics.best_response_probability game ~beta:0. 0 in
  let p1 = Logit.Logit_dynamics.best_response_probability game ~beta:2. 0 in
  let p2 = Logit.Logit_dynamics.best_response_probability game ~beta:20. 0 in
  check_true "increasing in beta" (p0 < p1 && p1 < p2);
  check_true "tends to 1" (p2 > 0.99)

let rejects_negative_beta () =
  let game = coordination_game () in
  check_raises_invalid "negative beta" (fun () ->
      ignore (Logit.Logit_dynamics.update_distribution game ~beta:(-1.) ~player:0 0))

(* ----- Gibbs ----- *)

let gibbs_closed_form () =
  let game = coordination_game ~delta0:1.0 ~delta1:1.0 () in
  let phi = Option.get (Potential.recover game) in
  let space = Game.space game in
  let beta = 2.0 in
  let pi = Logit.Gibbs.stationary space phi ~beta in
  (* Recovered potential (shifted so phi(00) = 0): consensus profiles
     at 0, off-diagonal at 1; weights 1, e^{-beta}, e^{-beta}, 1. *)
  check_float ~tol:1e-12 "pi(00)" (1. /. (2. +. (2. *. exp (-.beta)))) pi.(0);
  check_float ~tol:1e-12 "consensus mass equal" pi.(0) pi.(3);
  check_float ~tol:1e-12 "off-diagonal equal" pi.(1) pi.(2);
  check_float ~tol:1e-12 "ratio" (exp beta) (pi.(0) /. pi.(1))

let gibbs_is_stationary_and_reversible =
  QCheck.Test.make ~name:"Gibbs reversibility of logit chains" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let game, phi = random_potential_game ~players:3 ~strategies:2 seed in
      let beta = 1.5 in
      let chain = Logit.Logit_dynamics.chain game ~beta in
      let pi = Logit.Gibbs.stationary (Game.space game) phi ~beta in
      Markov.Stationary.residual chain pi < 1e-10
      && Markov.Chain.is_reversible chain pi)

let gibbs_beta_zero_uniform () =
  let space = Strategy_space.uniform ~players:3 ~strategies:2 in
  let pi = Logit.Gibbs.stationary space (fun idx -> float_of_int idx) ~beta:0. in
  check_array ~tol:1e-12 "uniform" (Array.make 8 0.125) pi

let gibbs_concentrates_on_minima () =
  let game = coordination_game ~delta0:2.0 ~delta1:1.0 () in
  let phi = Option.get (Potential.recover game) in
  let pi = Logit.Gibbs.stationary (Game.space game) phi ~beta:50. in
  (* (0,0) is the unique potential minimiser. *)
  check_true "mass on risk dominant" (pi.(0) > 0.999)

let gibbs_partition_and_pi_min () =
  let space = Strategy_space.uniform ~players:2 ~strategies:2 in
  let phi idx = float_of_int idx in
  let beta = 1.0 in
  let direct =
    log (List.fold_left (fun acc i -> acc +. exp (-.float_of_int i)) 0. [ 0; 1; 2; 3 ])
  in
  check_float ~tol:1e-12 "log partition" direct
    (Logit.Gibbs.log_partition space phi ~beta);
  let pi = Logit.Gibbs.stationary space phi ~beta in
  check_float ~tol:1e-12 "pi_min" pi.(3) (Logit.Gibbs.pi_min space phi ~beta)

let gibbs_of_game () =
  check_true "of_game on potential game"
    (Logit.Gibbs.of_game (coordination_game ()) ~beta:1. <> None);
  check_true "of_game rejects pennies"
    (Logit.Gibbs.of_game Zoo.matching_pennies ~beta:1. = None)

let gibbs_expected_potential_decreasing () =
  let game = coordination_game () in
  let phi = Option.get (Potential.recover game) in
  let space = Game.space game in
  let e1 = Logit.Gibbs.expected_potential space phi ~beta:0. in
  let e2 = Logit.Gibbs.expected_potential space phi ~beta:1. in
  let e3 = Logit.Gibbs.expected_potential space phi ~beta:5. in
  check_true "decreasing in beta" (e1 > e2 && e2 > e3)

(* ----- Lumping ----- *)

let logistic_values () =
  check_float ~tol:1e-12 "logistic 0" 0.5 (Logit.Lumping.logistic 0.);
  check_float ~tol:1e-15 "logistic large" 0. (Logit.Lumping.logistic 800.);
  check_float ~tol:1e-12 "logistic -large" 1. (Logit.Lumping.logistic (-800.));
  check_float ~tol:1e-12 "logistic symmetric" 1.
    (Logit.Lumping.logistic 2. +. Logit.Lumping.logistic (-2.))

let log_binomial_values () =
  check_float ~tol:1e-9 "C(5,2)" (log 10.) (Logit.Lumping.log_binomial 5 2);
  check_float ~tol:1e-9 "C(10,0)" 0. (Logit.Lumping.log_binomial 10 0);
  check_float ~tol:1e-9 "C(10,10)" 0. (Logit.Lumping.log_binomial 10 10);
  check_raises_invalid "out of range" (fun () ->
      ignore (Logit.Lumping.log_binomial 3 4))

let project_full_pi space pi players =
  let out = Array.make (players + 1) 0. in
  Array.iteri
    (fun idx p ->
      let w = Strategy_space.weight space idx in
      out.(w) <- out.(w) +. p)
    pi;
  out

let lumping_clique_stationary_agrees () =
  let n = 5 and delta0 = 1.2 and delta1 = 0.8 and beta = 0.9 in
  let desc =
    Graphical.create (Graphs.Generators.clique n)
      (Coordination.of_deltas ~delta0 ~delta1)
  in
  let game = Graphical.to_game desc in
  let space = Game.space game in
  let pi = Logit.Gibbs.stationary space (Graphical.potential desc) ~beta in
  let projected = project_full_pi space pi n in
  let bd = Logit.Lumping.clique ~n ~delta0 ~delta1 ~beta in
  check_array ~tol:1e-10 "bd stationary = projected Gibbs"
    projected (Markov.Birth_death.stationary bd);
  let closed =
    Logit.Lumping.stationary_weights ~players:n ~beta (fun k ->
        Graphical.clique_potential ~n ~delta0 ~delta1 k)
  in
  check_array ~tol:1e-10 "closed form agrees" projected closed

let lumping_clique_transitions_agree () =
  (* The full chain's weight process must have exactly the birth-death
     transition probabilities (lumpability). *)
  let n = 4 and delta0 = 1.0 and delta1 = 0.7 and beta = 1.1 in
  let desc =
    Graphical.create (Graphs.Generators.clique n)
      (Coordination.of_deltas ~delta0 ~delta1)
  in
  let game = Graphical.to_game desc in
  let space = Game.space game in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let bd = Logit.Lumping.clique ~n ~delta0 ~delta1 ~beta in
  Strategy_space.iter space (fun idx ->
      let w = Strategy_space.weight space idx in
      let up = ref 0. and down = ref 0. in
      Array.iter
        (fun (j, p) ->
          let wj = Strategy_space.weight space j in
          if wj = w + 1 then up := !up +. p
          else if wj = w - 1 then down := !down +. p)
        (Markov.Chain.row chain idx);
      check_float ~tol:1e-10 "up rate" (Markov.Birth_death.up bd w) !up;
      check_float ~tol:1e-10 "down rate" (Markov.Birth_death.down bd w) !down)

let lumping_clique_mixing_agrees () =
  let n = 5 and delta0 = 1.0 and delta1 = 1.0 and beta = 0.8 in
  let desc =
    Graphical.create (Graphs.Generators.clique n)
      (Coordination.of_deltas ~delta0 ~delta1)
  in
  let game = Graphical.to_game desc in
  let space = Game.space game in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let pi = Logit.Gibbs.stationary space (Graphical.potential desc) ~beta in
  let full = Markov.Mixing.mixing_time_all chain pi in
  let bd = Logit.Lumping.clique ~n ~delta0 ~delta1 ~beta in
  let lumped = Markov.Birth_death.mixing_time bd in
  check_true "mixing times equal" (full = lumped)

let lumping_curve_agrees () =
  let players = 6 in
  let cg = Curve_game.create ~players ~global:2. ~local:1. in
  let space = Curve_game.space cg in
  let beta = 1.5 in
  let pi = Logit.Gibbs.stationary space (Curve_game.potential cg) ~beta in
  let bd = Logit.Lumping.curve ~game:cg ~beta in
  check_array ~tol:1e-10 "curve stationary"
    (project_full_pi space pi players)
    (Markov.Birth_death.stationary bd)

let lumping_dominant_agrees () =
  let players = 4 and strategies = 3 and beta = 1.7 in
  let game = Dominant.lower_bound_game ~players ~strategies in
  let space = Game.space game in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let phi idx = Dominant.lower_bound_potential ~players ~strategies idx in
  let pi = Logit.Gibbs.stationary space phi ~beta in
  (* Project onto the number of non-zero players. *)
  let projected = Array.make (players + 1) 0. in
  Array.iteri
    (fun idx p ->
      let w = Strategy_space.weight space idx in
      projected.(w) <- projected.(w) +. p)
    pi;
  let bd = Logit.Lumping.dominant_lower_bound ~players ~strategies ~beta in
  check_array ~tol:1e-10 "dominant stationary" projected
    (Markov.Birth_death.stationary bd);
  (* Transition lumpability check. *)
  Strategy_space.iter space (fun idx ->
      let w = Strategy_space.weight space idx in
      let up = ref 0. and down = ref 0. in
      Array.iter
        (fun (j, p) ->
          let wj = Strategy_space.weight space j in
          if wj = w + 1 then up := !up +. p
          else if wj = w - 1 then down := !down +. p)
        (Markov.Chain.row chain idx);
      check_float ~tol:1e-10 "dominant up" (Markov.Birth_death.up bd w) !up;
      check_float ~tol:1e-10 "dominant down" (Markov.Birth_death.down bd w) !down)

let lumping_weight_symmetric_random =
  QCheck.Test.make ~name:"weight-symmetric lumping matches full chain" ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let players = 4 in
      let phi_w = Array.init (players + 1) (fun _ -> Prob.Rng.float r *. 3.) in
      let beta = 0.5 +. Prob.Rng.float r in
      let space = Strategy_space.uniform ~players ~strategies:2 in
      let phi idx = phi_w.(Strategy_space.weight space idx) in
      let game = Potential.common_interest ~name:"ws" space phi in
      let chain = Logit.Logit_dynamics.chain game ~beta in
      let pi = Logit.Gibbs.stationary space phi ~beta in
      let bd =
        Logit.Lumping.weight_symmetric ~players ~beta (fun k -> phi_w.(k))
      in
      let projected = Array.make (players + 1) 0. in
      Array.iteri
        (fun idx p ->
          projected.(Strategy_space.weight space idx) <-
            projected.(Strategy_space.weight space idx) +. p)
        pi;
      let bd_pi = Markov.Birth_death.stationary bd in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) projected bd_pi
      && Markov.Stationary.residual chain pi < 1e-9)

(* ----- Barrier ----- *)

let zeta_simple_double_well () =
  (* Potential on 2-player binary: wells at 00 (depth -2) and 11
     (depth -1), barrier at 0. zeta = 0 - (-1) = 1. *)
  let space = Strategy_space.uniform ~players:2 ~strategies:2 in
  let phi = function 0 -> -2. | 3 -> -1. | _ -> 0. in
  check_float "zeta" 1. (Logit.Barrier.zeta space phi);
  check_float "zeta brute" 1. (Logit.Barrier.zeta_brute space phi)

let zeta_monotone_potential_is_zero () =
  let space = Strategy_space.uniform ~players:3 ~strategies:2 in
  let phi idx = float_of_int (Strategy_space.weight space idx) in
  check_float "monotone zeta" 0. (Logit.Barrier.zeta space phi);
  check_float "monotone brute" 0. (Logit.Barrier.zeta_brute space phi)

let zeta_merge_equals_brute =
  QCheck.Test.make ~name:"zeta merge-sweep = brute widest-path" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let space = Strategy_space.uniform ~players:3 ~strategies:2 in
      let table = Array.init 8 (fun _ -> Prob.Rng.float r *. 4.) in
      let phi idx = table.(idx) in
      Float.abs (Logit.Barrier.zeta space phi -. Logit.Barrier.zeta_brute space phi)
      < 1e-12)

let zeta_weight_potential_matches_cube =
  QCheck.Test.make ~name:"weight-potential zeta = cube zeta" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let players = 5 in
      let phi_w = Array.init (players + 1) (fun _ -> Prob.Rng.float r *. 4.) in
      let space = Strategy_space.uniform ~players ~strategies:2 in
      let phi idx = phi_w.(Strategy_space.weight space idx) in
      let direct = Logit.Barrier.zeta space phi in
      let fast = Logit.Barrier.zeta_of_weight_potential ~players (fun k -> phi_w.(k)) in
      Float.abs (direct -. fast) < 1e-12)

let zeta_clique_closed_form () =
  let n = 7 and delta0 = 1.5 and delta1 = 1.0 in
  let closed = Logit.Barrier.zeta_clique ~n ~delta0 ~delta1 in
  let via_weight =
    Logit.Barrier.zeta_of_weight_potential ~players:n (fun k ->
        Graphical.clique_potential ~n ~delta0 ~delta1 k)
  in
  check_float ~tol:1e-12 "closed = weight" via_weight closed;
  (* And against the full cube. *)
  let desc =
    Graphical.create (Graphs.Generators.clique n)
      (Coordination.of_deltas ~delta0 ~delta1)
  in
  check_float ~tol:1e-9 "closed = cube" closed
    (Logit.Barrier.zeta (Graphical.space desc) (Graphical.potential desc))

let widest_path_values () =
  let space = Strategy_space.uniform ~players:2 ~strategies:2 in
  let phi = function 0 -> -2. | 3 -> -1. | _ -> 0. in
  let w = Logit.Barrier.widest_path_from space phi 0 in
  check_float "to self" (-2.) w.(0);
  check_float "to neighbor" 0. w.(1);
  check_float "to other well" 0. w.(3)

(* ----- Bounds sanity ----- *)

let bounds_dominate_measurements () =
  (* Lemma 3.3 / Thm 3.4 bounds must dominate exact values for a
     selection of games and betas. *)
  List.iter
    (fun (game, phi) ->
      let space = Game.space game in
      let n = Strategy_space.num_players space in
      let m = Strategy_space.max_strategies space in
      let delta_phi = Potential.delta_global space phi in
      List.iter
        (fun beta ->
          let chain = Logit.Logit_dynamics.chain game ~beta in
          let pi = Logit.Gibbs.stationary space phi ~beta in
          let trel = Markov.Spectral.relaxation_time chain pi in
          check_true "lemma 3.3 dominates"
            (Logit.Bounds.lemma33_trel_upper ~n ~m ~beta ~delta_phi >= trel -. 1e-6);
          match Markov.Mixing.mixing_time_all chain pi with
          | Some t ->
              check_true "thm 3.4 dominates"
                (Logit.Bounds.thm34_tmix_upper ~n ~m ~beta ~delta_phi ()
                >= float_of_int t)
          | None -> Alcotest.fail "mixing should finish")
        [ 0.0; 0.7; 2.0 ])
    [
      (let g = coordination_game () in
       (g, Option.get (Potential.recover g)));
      (let g = Zoo.pure_coordination ~players:3 ~strategies:2 in
       (g, Option.get (Potential.recover g)));
    ]

let bounds_thm42_dominates_thm43 () =
  List.iter
    (fun (n, m) ->
      check_true "upper >= lower"
        (Logit.Bounds.thm42_tmix_upper ~n ~m >= Logit.Bounds.thm43_tmix_lower ~n ~m))
    [ (2, 2); (5, 2); (5, 5); (10, 3) ]

let bounds_ring_bracket () =
  (* Ring bounds must bracket the exact mixing time. *)
  let n = 6 and delta = 1.0 in
  let desc =
    Graphical.create (Graphs.Generators.ring n)
      (Coordination.of_deltas ~delta0:delta ~delta1:delta)
  in
  let game = Graphical.to_game desc in
  let space = Game.space game in
  List.iter
    (fun beta ->
      let chain = Logit.Logit_dynamics.chain game ~beta in
      let pi = Logit.Gibbs.stationary space (Graphical.potential desc) ~beta in
      match Markov.Mixing.mixing_time_all ~max_steps:200_000 chain pi with
      | Some t ->
          let t = float_of_int t in
          check_true "thm 5.6 upper"
            (Logit.Bounds.thm56_tmix_upper ~n ~beta ~delta () >= t);
          check_true "thm 5.7 lower"
            (Logit.Bounds.thm57_tmix_lower ~beta ~delta () <= t +. 1.)
      | None -> Alcotest.fail "ring mixing should finish")
    [ 0.5; 1.0; 1.5 ]

let bounds_thm51_dominates () =
  let n = 5 and delta = 0.5 in
  let graph = Graphs.Generators.ring n in
  let chi = Graphs.Cutwidth.exact graph in
  let desc =
    Graphical.create graph (Coordination.of_deltas ~delta0:delta ~delta1:delta)
  in
  let game = Graphical.to_game desc in
  let space = Game.space game in
  List.iter
    (fun beta ->
      let chain = Logit.Logit_dynamics.chain game ~beta in
      let pi = Logit.Gibbs.stationary space (Graphical.potential desc) ~beta in
      match Markov.Mixing.mixing_time_all chain pi with
      | Some t ->
          check_true "thm 5.1 dominates"
            (Logit.Bounds.thm51_tmix_upper ~n ~beta ~cutwidth:chi ~delta0:delta
               ~delta1:delta
            >= float_of_int t)
      | None -> Alcotest.fail "mixing should finish")
    [ 0.5; 1.0 ]

let bounds_validation () =
  check_raises_invalid "bad c" (fun () ->
      ignore (Logit.Bounds.thm36_beta_threshold ~c:1.5 ~n:3 ~delta_local:1.));
  check_raises_invalid "negative beta" (fun () ->
      ignore (Logit.Bounds.lemma33_trel_upper ~n:2 ~m:2 ~beta:(-1.) ~delta_phi:1.));
  check_raises_invalid "thm55 wrong convention" (fun () ->
      ignore (Logit.Bounds.thm55_exponent ~n:4 ~beta:1. ~delta0:1. ~delta1:2.))

(* ----- Dynamics (couplings) ----- *)

let interval_coupling_is_valid_coupling () =
  (* Marginals of the coupled step must equal the chain's kernel. *)
  let game = coordination_game () in
  let beta = 1.2 in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let step = Logit.Dynamics.interval_coupling game ~beta in
  let r = rng () in
  let x0 = 0 and y0 = 3 in
  let n = 60_000 in
  let cx = Array.make 4 0 and cy = Array.make 4 0 in
  for _ = 1 to n do
    let x, y = step r (x0, y0) in
    cx.(x) <- cx.(x) + 1;
    cy.(y) <- cy.(y) + 1
  done;
  for j = 0 to 3 do
    check_float ~tol:0.012 (Printf.sprintf "x marginal %d" j)
      (Markov.Chain.prob chain x0 j)
      (float_of_int cx.(j) /. float_of_int n);
    check_float ~tol:0.012 (Printf.sprintf "y marginal %d" j)
      (Markov.Chain.prob chain y0 j)
      (float_of_int cy.(j) /. float_of_int n)
  done

let threshold_coupling_is_valid_coupling () =
  let game = coordination_game () in
  let beta = 1.2 in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let step = Logit.Dynamics.threshold_coupling game ~beta in
  let r = rng () in
  let x0 = 1 and y0 = 2 in
  let n = 60_000 in
  let cx = Array.make 4 0 and cy = Array.make 4 0 in
  for _ = 1 to n do
    let x, y = step r (x0, y0) in
    cx.(x) <- cx.(x) + 1;
    cy.(y) <- cy.(y) + 1
  done;
  for j = 0 to 3 do
    check_float ~tol:0.012 (Printf.sprintf "x marginal %d" j)
      (Markov.Chain.prob chain x0 j)
      (float_of_int cx.(j) /. float_of_int n);
    check_float ~tol:0.012 (Printf.sprintf "y marginal %d" j)
      (Markov.Chain.prob chain y0 j)
      (float_of_int cy.(j) /. float_of_int n)
  done

let couplings_stay_together () =
  let game = coordination_game () in
  let beta = 0.9 in
  let r = rng () in
  check_int "interval stays" 0
    (Markov.Coupling.grand_coupling_check r
       (Logit.Dynamics.interval_coupling game ~beta)
       ~size:4 ~trials:300 ~horizon:30);
  check_int "threshold stays" 0
    (Markov.Coupling.grand_coupling_check r
       (Logit.Dynamics.threshold_coupling game ~beta)
       ~size:4 ~trials:300 ~horizon:30)

let coupling_estimate_upper_bounds () =
  (* The 75th-percentile coalescence estimate from the worst pair must
     upper bound the exact mixing time (coupling theorem). *)
  let game = Zoo.pure_coordination ~players:3 ~strategies:2 in
  let beta = 1.0 in
  let phi = Option.get (Potential.recover game) in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let pi = Logit.Gibbs.stationary (Game.space game) phi ~beta in
  let tmix = Option.get (Markov.Mixing.mixing_time_all chain pi) in
  let step = Logit.Dynamics.interval_coupling game ~beta in
  let r = rng () in
  (* worst over all start pairs of the estimate *)
  let worst = ref 0 in
  for x = 0 to 7 do
    for y = x + 1 to 7 do
      match
        Markov.Coupling.tmix_upper_estimate r step ~x0:x ~y0:y ~max_steps:100_000
          ~replicas:300
      with
      | Some e -> if e > !worst then worst := e
      | None -> Alcotest.fail "coupling should coalesce"
    done
  done;
  check_true "coupling bound >= tmix" (!worst >= tmix)

let hitting_time_dominant () =
  (* In the PD at high beta the chain falls into (defect, defect) fast. *)
  let game = Dominant.prisoners_dilemma () in
  let r = rng () in
  match
    Logit.Dynamics.hitting_time r game ~beta:10. ~start:3
      ~target:(fun idx -> idx = 0)
      ~max_steps:10_000
  with
  | Some t -> check_true "hits quickly" (t < 200)
  | None -> Alcotest.fail "should hit the dominant profile"

let occupancy_matches_gibbs () =
  let game = coordination_game () in
  let beta = 1.0 in
  let phi = Option.get (Potential.recover game) in
  let pi = Logit.Gibbs.stationary (Game.space game) phi ~beta in
  let r = rng () in
  let occ =
    Logit.Dynamics.occupancy r game ~beta ~start:0 ~burn_in:500 ~samples:30_000
      ~thin:3
  in
  check_true "occupancy close to Gibbs"
    (Prob.Empirical.tv_against occ (Prob.Dist.of_weights pi) < 0.02)

let mean_potential_trajectory_shape () =
  let game = coordination_game () in
  let phi = Option.get (Potential.recover game) in
  let r = rng () in
  let curve =
    Logit.Dynamics.mean_potential_trajectory r game phi ~beta:2. ~start:1
      ~steps:50 ~replicas:200
  in
  check_int "length" 51 (Array.length curve);
  check_float "starts at phi(start)" (phi 1) curve.(0);
  (* converges towards the equilibrium expectation *)
  let eq = Logit.Gibbs.expected_potential (Game.space game) phi ~beta:2. in
  check_true "approaches equilibrium"
    (Float.abs (curve.(50) -. eq) < Float.abs (curve.(0) -. eq))

(* ----- Theorem 3.1 (spectra) ----- *)

let thm31_nonnegative_spectra =
  QCheck.Test.make ~name:"Thm 3.1: potential-game spectra are non-negative"
    ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let game, phi = random_potential_game ~players:3 ~strategies:2 seed in
      let beta = 2.0 in
      let chain = Logit.Logit_dynamics.chain game ~beta in
      let pi = Logit.Gibbs.stationary (Game.space game) phi ~beta in
      Markov.Spectral.min_eigenvalue chain pi >= -1e-9)

let thm31_fails_for_pennies () =
  let chain = Logit.Logit_dynamics.chain Zoo.matching_pennies ~beta:2. in
  let spec = Linalg.Eigen.general_spectrum (Markov.Chain.to_dense chain) in
  let max_im =
    Array.fold_left (fun acc (_, im) -> Float.max acc (Float.abs im)) 0. spec
  in
  check_true "complex eigenvalues appear" (max_im > 0.1)

let suites =
  [
    ( "logit.dynamics_rule",
      [
        test "update normalises" update_distribution_normalises;
        test "beta 0 uniform" update_distribution_beta_zero_uniform;
        test "large beta best response" update_distribution_beta_large_best_response;
        test "two-point formula" update_distribution_formula;
        test "huge beta stable" update_distribution_huge_beta_no_nan;
        test "rows stochastic" transition_row_stochastic;
        test "matches eq (3)" transition_matches_eq3;
        test "chain ergodic" chain_is_ergodic;
        test "step simulation consistent" step_simulation_consistent;
        test "best-response prob monotone" best_response_probability_monotone;
        test "rejects negative beta" rejects_negative_beta;
      ] );
    ( "logit.gibbs",
      [
        test "closed form" gibbs_closed_form;
        test "beta 0 uniform" gibbs_beta_zero_uniform;
        test "concentrates on minima" gibbs_concentrates_on_minima;
        test "partition & pi_min" gibbs_partition_and_pi_min;
        test "of_game" gibbs_of_game;
        test "expected potential decreasing" gibbs_expected_potential_decreasing;
        qcheck gibbs_is_stationary_and_reversible;
      ] );
    ( "logit.lumping",
      [
        test "logistic" logistic_values;
        test "log binomial" log_binomial_values;
        test "clique stationary" lumping_clique_stationary_agrees;
        test "clique transitions" lumping_clique_transitions_agree;
        test "clique mixing time" lumping_clique_mixing_agrees;
        test "curve stationary" lumping_curve_agrees;
        test "dominant game" lumping_dominant_agrees;
        qcheck lumping_weight_symmetric_random;
      ] );
    ( "logit.barrier",
      [
        test "double well" zeta_simple_double_well;
        test "monotone potential" zeta_monotone_potential_is_zero;
        test "clique closed form" zeta_clique_closed_form;
        test "widest path values" widest_path_values;
        qcheck zeta_merge_equals_brute;
        qcheck zeta_weight_potential_matches_cube;
      ] );
    ( "logit.bounds",
      [
        test "dominate measurements" bounds_dominate_measurements;
        test "thm42 >= thm43" bounds_thm42_dominates_thm43;
        test "ring bracket" bounds_ring_bracket;
        test "thm51 dominates" bounds_thm51_dominates;
        test "validation" bounds_validation;
      ] );
    ( "logit.couplings",
      [
        test "interval coupling marginals" interval_coupling_is_valid_coupling;
        test "threshold coupling marginals" threshold_coupling_is_valid_coupling;
        test "stay together" couplings_stay_together;
        test "coupling bounds tmix" coupling_estimate_upper_bounds;
        test "hitting dominant profile" hitting_time_dominant;
        test "occupancy matches gibbs" occupancy_matches_gibbs;
        test "mean potential trajectory" mean_potential_trajectory_shape;
      ] );
    ( "logit.thm31",
      [ test "pennies complex spectrum" thm31_fails_for_pennies; qcheck thm31_nonnegative_spectra ] );
  ]

(* Appended: deeper lumping & bottleneck properties. *)

let lumping_mixing_equality_random =
  QCheck.Test.make
    ~name:"lumped mixing brackets full mixing (weight-symmetric)" ~count:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create (seed + 3) in
      let players = 4 in
      let phi_w = Array.init (players + 1) (fun _ -> Prob.Rng.float r *. 2.) in
      let beta = 0.5 +. Prob.Rng.float r in
      let space = Strategy_space.uniform ~players ~strategies:2 in
      let phi idx = phi_w.(Strategy_space.weight space idx) in
      let game = Potential.common_interest ~name:"ws" space phi in
      let chain = Logit.Logit_dynamics.chain game ~beta in
      let pi = Logit.Gibbs.stationary space phi ~beta in
      let full = Markov.Mixing.mixing_time_all ~max_steps:500_000 chain pi in
      let bd = Logit.Lumping.weight_symmetric ~players ~beta (fun k -> phi_w.(k)) in
      let lumped = Markov.Birth_death.mixing_time ~max_steps:500_000 bd in
      (* Projection can only shrink TV, so the lumped time lower-bounds
         the full one; within-shell relaxation is O(n log n), so for
         these tiny games they stay within a small additive window. *)
      match (full, lumped) with
      | Some f, Some l -> l <= f && f <= l + 25
      | _ -> false)

let bottleneck_bounds_curve_games () =
  (* Thm 2.7 on the lumped Thm 3.5 chain across betas. *)
  let game = Curve_game.create ~players:10 ~global:3. ~local:1. in
  List.iter
    (fun beta ->
      let bd = Logit.Lumping.curve ~game ~beta in
      let chain = Markov.Birth_death.to_chain bd in
      let pi = Markov.Birth_death.stationary bd in
      let ratio, _ =
        Markov.Bottleneck.best_sublevel_set chain pi (fun k -> float_of_int k)
      in
      let lower = Markov.Bottleneck.lower_bound_tmix ratio in
      match Markov.Birth_death.mixing_time_spectral bd with
      | Some t -> check_true "bottleneck lower bound holds" (lower <= float_of_int t +. 1.)
      | None -> Alcotest.fail "should mix")
    [ 0.5; 1.5; 3.0 ]

let spectral_huge_beta_consistency () =
  (* mixing_time_spectral must agree with stepwise evolution on a chain
     whose t_mix is in the tens of thousands. *)
  let bd = Logit.Lumping.clique ~n:10 ~delta0:1.0 ~delta1:1.0 ~beta:0.55 in
  let a = Markov.Birth_death.mixing_time ~max_steps:2_000_000 bd in
  let b = Markov.Birth_death.mixing_time_spectral bd in
  check_true "methods agree" (a = b)

let suites =
  suites
  @ [
      ( "logit.deep_properties",
        [
          test "bottleneck bounds curve games" bottleneck_bounds_curve_games;
          test "spectral consistency at large t" spectral_huge_beta_consistency;
          qcheck lumping_mixing_equality_random;
        ] );
    ]

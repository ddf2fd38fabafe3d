open Perfbench

let work = "perfbench-test-work"
let cli = Sys.getenv "PERFBENCH_CLI"

(* --- inputs --------------------------------------------------------- *)

let test_seeded_inputs () =
  let mixing seed = Gen.mixing_pass Gen.Full ~seed in
  let daemon seed =
    List.map (fun p -> (p.Gen.arrival, Array.to_list p.Gen.queries)) (Gen.daemon_phases Gen.Full ~seed)
  in
  Alcotest.(check bool) "mixing: same seed, same queries" true (mixing 7 = mixing 7);
  Alcotest.(check bool) "daemon: same seed, same queries" true (daemon 7 = daemon 7);
  Alcotest.(check bool) "mixing: another seed, other queries" true (mixing 7 <> mixing 8);
  Alcotest.(check bool) "daemon: another seed, other queries" true (daemon 7 <> daemon 8)

let test_phase_shape () =
  List.iter
    (fun seed ->
      let phases = Gen.daemon_phases Gen.Full ~seed in
      Alcotest.(check int) "a closed loop, then three rates" 4 (List.length phases);
      Alcotest.(check bool) "closed loop first" true ((List.hd phases).Gen.arrival = Gen.Closed);
      List.iter
        (fun p ->
          Alcotest.(check bool) "p95 supported" true
            (Array.length p.Gen.queries - int_of_float (Float.ceil (0.95 *. float_of_int (Array.length p.Gen.queries)))
            >= Summary.min_beyond))
        phases)
    [ 1; 2; 3 ]

(* --- percentiles ----------------------------------------------------- *)

let test_percentile_rule () =
  let xs n = List.init n (fun i -> float_of_int (n - i)) in
  Alcotest.(check (option (float 0.))) "199 samples: 9 beyond p95" None (Summary.percentile ~p:95. (xs 199));
  Alcotest.(check (option (float 0.))) "200 samples: 10 beyond p95" (Some 190.)
    (Summary.percentile ~p:95. (xs 200));
  Alcotest.(check (option (float 0.))) "20 samples support p50" (Some 10.) (Summary.percentile ~p:50. (xs 20));
  Alcotest.(check (option (float 0.))) "10 samples do not" None (Summary.percentile ~p:50. (xs 10));
  Alcotest.(check (float 0.)) "median, even count" 2.5 (Summary.median [ 4.; 1.; 3.; 2. ])

(* --- metric names ---------------------------------------------------- *)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let names defs = List.map (fun d -> d.Report.name) defs

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " matches [A-Za-z0-9_.-]+") true (valid_name n))
    (names Report.end_to_end @ names Report.per_layer);
  Alcotest.(check int) "19 experiments" 19 (List.length Report.experiment_ids)

let test_benchmark_json () =
  let json =
    match Bench.Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let listed key =
    match Bench.Json.list_field key json with
    | Ok l ->
        List.map
          (fun m ->
            match (Bench.Json.str_field "name" m, Bench.Json.str_field "unit" m) with
            | Ok n, Ok u -> (n, u)
            | _ -> Alcotest.fail ("malformed entry in " ^ key))
          l
    | Error e -> Alcotest.fail e
  in
  let ours defs = List.map (fun d -> (d.Report.name, d.Report.unit_)) defs in
  Alcotest.(check (list (pair string string))) "end_to_end" (ours Report.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" (ours Report.per_layer) (listed "per_layer");
  let workloads =
    match Bench.Json.list_field "workloads" json with
    | Ok l -> List.map (fun w -> Result.get_ok (Bench.Json.str_field "name" w)) l
    | Error e -> Alcotest.fail e
  in
  (* mixing runs, but is not gated: see README.md *)
  Alcotest.(check (list string)) "workloads" [ "experiments"; "daemon" ] workloads

(* --- smoke profiles through the correctness gates -------------------- *)

let no_failures name (o : Util.outcome) =
  Alcotest.(check bool) (name ^ ": attempted") true (o.Util.attempted > 0);
  Alcotest.(check int) (name ^ ": failed") 0 o.Util.failed

let test_experiments_smoke () =
  no_failures "experiments"
    (Exp_wl.run ~ids:(Some [ "e1"; "e6" ]) ~refs:"../refs/experiments.md5" ~cli ~work ~seconds:0.)

let test_experiments_gate () =
  let refs = Filename.concat work "bad.md5" in
  Util.rm_rf work;
  Unix.mkdir work 0o755;
  Out_channel.with_open_text refs (fun oc -> output_string oc "e1 00000000000000000000000000000000\n");
  let o = Exp_wl.run ~ids:(Some [ "e1"; "e6" ]) ~refs ~cli ~work ~seconds:0. in
  (* two passes: e1 differs from its digest, e6 has none *)
  Alcotest.(check int) "every wrong or missing digest fails" 4 o.Util.failed

let test_mixing_smoke () =
  no_failures "mixing" (Mix_wl.run Gen.Smoke ~seed:3 ~refs:"../refs/mixing.ref" ~cli ~work ~seconds:0.)

let test_mixing_gate () =
  let refs = Filename.concat work "bad.ref" in
  Util.rm_rf work;
  Unix.mkdir work 0o755;
  Out_channel.with_open_text refs (fun oc -> output_string oc "matching-pennies 2 1 0.25 999\n");
  let o = Mix_wl.run Gen.Smoke ~seed:3 ~refs ~cli ~work ~seconds:0. in
  Alcotest.(check int) "a wrong reference fails the query" 1 o.Util.failed

let test_daemon_smoke () =
  let exe = Sys.getenv "PERFBENCH_DAEMON" in
  no_failures "daemon" (Daemon_wl.run Gen.Smoke ~seed:5 ~exe ~work ~seconds:0.)

(* Last: it turns tracing on for the rest of the process. *)
let test_traced_smoke () =
  let e = Exp_wl.traced ~ids:(Some [ "e1"; "e6" ]) ~refs:"../refs/experiments.md5" ~work in
  let m = Mix_wl.traced Gen.Smoke ~seed:3 ~refs:"../refs/mixing.ref" in
  let d = Daemon_wl.traced Gen.Smoke ~seed:5 ~exe:(Sys.getenv "PERFBENCH_DAEMON") ~work in
  List.iter (no_failures "traced") [ e; m; d ];
  let got = List.sort compare (List.concat_map (fun o -> List.map fst o.Util.metrics) [ e; m; d ]) in
  Alcotest.(check (list string)) "every per-layer metric, once" (List.sort compare (names Report.per_layer)) got;
  Alcotest.(check bool) "spans recorded" true (Trace.self_s "markov.decompose" > 0.)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded query lists" `Quick test_seeded_inputs;
          Alcotest.test_case "daemon phase sizes" `Quick test_phase_shape;
        ] );
      ("summary", [ Alcotest.test_case "percentile needs 10 beyond" `Quick test_percentile_rule ]);
      ( "metrics",
        [
          Alcotest.test_case "names" `Quick test_metric_names;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "experiments gate passes" `Quick test_experiments_smoke;
          Alcotest.test_case "experiments gate catches a digest" `Quick test_experiments_gate;
          Alcotest.test_case "mixing gate passes" `Quick test_mixing_smoke;
          Alcotest.test_case "mixing gate catches a t_mix" `Quick test_mixing_gate;
          Alcotest.test_case "daemon gate passes" `Quick test_daemon_smoke;
          Alcotest.test_case "traced run yields every per-layer metric" `Quick test_traced_smoke;
        ] );
    ]

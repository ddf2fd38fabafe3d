(* The bench trajectory subsystem (lib/bench): the JSON codec, the
   versioned Record, the append-only History file and the provenance
   stamping every bench run appends through, the regression Gate's
   boundary semantics, and the Cli exit codes CI keys off — driven
   through the same functions `logitdyn bench ...` calls. *)

open Helpers
module J = Bench.Json
module Record = Bench.Record
module History = Bench.History
module Gate = Bench.Gate
module Cli = Bench.Cli

(* ---------------- plumbing ---------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmp f =
  let dir = Filename.temp_file "bench_test" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let get_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected error: %s" what msg

let get_error what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg -> msg

let rv ?rev ?host ?timestamp ~bench ~workload ~arm ~seconds ~speedup ~correct
    ~quick ~jobs () =
  get_ok "fixture record"
    (Record.v ?rev ?host ?timestamp ~bench ~workload ~arm ~seconds ~speedup
       ~correct ~quick ~jobs ())

let sample ?(seconds = 1.0) ?(speedup = 1.0) ?(correct = true) ?(arm = "csr")
    ?(workload = "tv_curve") ?(jobs = 1) () =
  rv ~bench:"csr_ablation" ~workload ~arm ~seconds ~speedup ~correct
    ~quick:false ~jobs ()

(* ---------------- Json ---------------- *)

let json_parse_basics () =
  let j =
    get_ok "parse"
      (J.parse {| { "a": [1, -2.5, 1e3], "s": "x\n\"yA", "b": true, "n": null } |})
  in
  check_true "array field"
    (J.member "a" j = Some (J.List [ J.Num 1.; J.Num (-2.5); J.Num 1000. ]));
  check_true "escapes" (J.member "s" j = Some (J.Str "x\n\"yA"));
  check_true "bool" (J.member "b" j = Some (J.Bool true));
  check_true "null" (J.member "n" j = Some J.Null)

let json_parse_rejects () =
  List.iter
    (fun (name, s) -> ignore (get_error name (J.parse s)))
    [
      ("trailing garbage", "{} x");
      ("bare NaN literal", "NaN");
      ("bare Infinity literal", "Infinity");
      ("unterminated string", "\"abc");
      ("control char in string", "\"a\nb\"");
      ("missing colon", "{\"a\" 1}");
      ("trailing comma", "[1,]");
      ("empty input", "   ");
      ("number overflow", "1e999");
    ]

let json_print_round_trip () =
  let j =
    J.Obj
      [
        ("pi", J.Num 3.141592653589793);
        ("tiny", J.Num 1e-300);
        ("neg", J.Num (-0.1));
        ("int", J.Num 42.);
        ("esc", J.Str "a\"b\\c\td");
        ("arr", J.List [ J.Bool false; J.Null; J.Obj [] ]);
      ]
  in
  check_true "compact round-trips" (get_ok "reparse" (J.parse (J.to_string j)) = j);
  check_true "pretty round-trips" (get_ok "reparse" (J.parse (J.pretty j)) = j);
  check_raises_invalid "NaN unprintable" (fun () ->
      ignore (J.to_string (J.Num Float.nan)));
  check_raises_invalid "infinity unprintable" (fun () ->
      ignore (J.to_string (J.Num Float.infinity)))

(* int_field must reject any number a double cannot hold exactly:
   |f| >= 2^53 aliases distinct JSON integers (2^53 and 2^53 + 1 both
   parse to the float 2^53), so the boundary itself is out. *)
let int_field_of_literal lit =
  match J.parse (Printf.sprintf "{\"n\": %s}" lit) with
  | Error msg -> Alcotest.failf "parse {\"n\": %s}: %s" lit msg
  | Ok j -> J.int_field "n" j

let json_int_field_boundaries () =
  let two53 = 9007199254740992 in
  let accepts lit expect =
    match int_field_of_literal lit with
    | Ok v -> check_int (Printf.sprintf "int_field %s" lit) expect v
    | Error msg -> Alcotest.failf "int_field %s rejected: %s" lit msg
  in
  let rejects lit =
    ignore (get_error (Printf.sprintf "int_field %s" lit) (int_field_of_literal lit))
  in
  accepts "0" 0;
  accepts (string_of_int (two53 - 1)) (two53 - 1);
  accepts (string_of_int (-(two53 - 1))) (-(two53 - 1));
  rejects (string_of_int two53);
  rejects (string_of_int (two53 + 1));
  rejects (string_of_int (-two53));
  rejects "1.5";
  rejects "-0.25";
  rejects "1e300";
  rejects "true";
  rejects "\"7\""

let json_int_field_safe_range =
  (* Any integer m * 2^e strictly inside the safe range survives a
     print/parse/int_field trip bit-for-bit. *)
  QCheck.Test.make ~name:"int_field round-trips safe integers exactly" ~count:500
    QCheck.(pair (int_bound ((1 lsl 26) - 1)) (int_bound 26))
    (fun (m, e) ->
      let i = m * (1 lsl e) in
      List.for_all
        (fun v -> int_field_of_literal (string_of_int v) = Ok v)
        [ i; -i ])

(* ---------------- Record ---------------- *)

(* Diverse exactly-representable doubles: m * 2^e with |m| < 2^30. *)
let float_gen =
  QCheck.map
    (fun (m, e) -> Float.ldexp (float_of_int m) (e - 40))
    QCheck.(pair (int_bound 1_073_741_823) (int_bound 80))

let name_gen =
  QCheck.map
    (fun s -> if s = "" then "x" else s)
    QCheck.(string_gen_of_size (QCheck.Gen.return 6) QCheck.Gen.printable)

let record_gen =
  QCheck.map
    (fun ((bench, workload, arm), (seconds, speedup, ts), (correct, quick, jobs)) ->
      rv ~rev:"abc1234" ~host:"host-1" ~timestamp:ts ~bench ~workload ~arm
        ~seconds ~speedup:(speedup +. 0.001) ~correct ~quick
        ~jobs:(1 + jobs) ())
    QCheck.(
      triple
        (triple name_gen name_gen name_gen)
        (triple float_gen float_gen float_gen)
        (triple bool bool (int_bound 63)))

let record_json_round_trip =
  QCheck.Test.make ~name:"Record.to_json/of_json round-trips bit-for-bit"
    ~count:200 record_gen (fun r ->
      match J.parse (J.to_string (Record.to_json r)) with
      | Error _ -> false
      | Ok j -> Record.of_json j = Ok r)

let record_validation () =
  let mk seconds speedup =
    Record.v ~bench:"b" ~workload:"w" ~arm:"a" ~seconds ~speedup ~correct:true
      ~quick:false ~jobs:1 ()
  in
  ignore (get_error "NaN seconds" (mk Float.nan 1.0));
  ignore (get_error "+inf seconds" (mk Float.infinity 1.0));
  ignore (get_error "-inf seconds" (mk Float.neg_infinity 1.0));
  ignore (get_error "negative seconds" (mk (-1.0) 1.0));
  ignore (get_error "NaN speedup" (mk 1.0 Float.nan));
  ignore (get_error "zero speedup" (mk 1.0 0.));
  ignore
    (get_error "empty arm"
       (Record.v ~bench:"b" ~workload:"w" ~arm:"" ~seconds:1. ~speedup:1.
          ~correct:true ~quick:false ~jobs:1 ()));
  ignore
    (get_error "jobs < 1"
       (Record.v ~bench:"b" ~workload:"w" ~arm:"a" ~seconds:1. ~speedup:1.
          ~correct:true ~quick:false ~jobs:0 ()));
  (* of_json applies the same validation to hand-built values. *)
  let j = Record.to_json (sample ()) in
  let poisoned =
    match j with
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, v) -> if k = "seconds" then (k, J.Num Float.nan) else (k, v))
             fields)
    | _ -> Alcotest.fail "record json is an object"
  in
  ignore (get_error "of_json rejects NaN seconds" (Record.of_json poisoned))

let sample_rss ?(seconds = 1.0) ?rss () =
  get_ok "rss fixture"
    (Record.v ?peak_rss_kb:rss ~bench:"ooc_ablation" ~workload:"tv_curve"
       ~arm:"stream" ~seconds ~speedup:1.0 ~correct:true ~quick:false ~jobs:1 ())

let record_rss_round_trip () =
  (* With the field present, the JSON trip is exact. *)
  let r = sample_rss ~rss:12_345 () in
  check_true "rss record round-trips"
    (match J.parse (J.to_string (Record.to_json r)) with
    | Ok j -> Record.of_json j = Ok r
    | Error _ -> false);
  (* Without it, the key is omitted entirely — pre-existing
     trajectories and the records this build writes for rss-less arms
     stay byte-compatible — and decoding maps absence back to None. *)
  let bare = sample_rss () in
  (match Record.to_json bare with
  | J.Obj fields ->
      check_false "peak_rss_kb omitted when None"
        (List.mem_assoc "peak_rss_kb" fields);
      (* An explicit null (a hand-edited baseline) also reads as None. *)
      let with_null = J.Obj (fields @ [ ("peak_rss_kb", J.Null) ]) in
      check_true "explicit null reads as None"
        (Record.of_json with_null = Ok bare)
  | _ -> Alcotest.fail "record json is an object");
  check_true "absent key decodes to None"
    (match J.parse (J.to_string (Record.to_json bare)) with
    | Ok j -> Record.of_json j = Ok bare
    | Error _ -> false);
  (* Validation covers the new field. *)
  ignore
    (get_error "negative rss rejected"
       (Record.v ~peak_rss_kb:(-1) ~bench:"b" ~workload:"w" ~arm:"a" ~seconds:1.
          ~speedup:1. ~correct:true ~quick:false ~jobs:1 ()));
  check_true "schema version unchanged by the additive field"
    (Record.schema_version = 1)

let record_key_discriminates () =
  let base = sample () in
  check_true "same fields, same key" (Record.key base = Record.key (sample ()));
  check_false "quick differs"
    (Record.key base = Record.key { base with Record.quick = true });
  check_false "jobs differ"
    (Record.key base = Record.key { base with Record.jobs = 4 });
  check_false "arm differs"
    (Record.key base = Record.key { base with Record.arm = "pre_csr" });
  check_true "seconds do not enter the key"
    (Record.key base = Record.key { base with Record.seconds = 99. })

(* ---------------- History ---------------- *)

let history_round_trip () =
  let records = [ sample (); sample ~arm:"pre_csr" ~seconds:2. () ] in
  check_true "encode/decode round-trips"
    (get_ok "decode" (History.decode (History.encode records)) = records)

let history_schema_bump_detected () =
  let newer =
    J.pretty
      (J.Obj
         [
           ( "schema_version",
             J.Num (float_of_int (Record.schema_version + 1)) );
           ("records", J.List []);
         ])
  in
  let msg = get_error "newer schema refused" (History.decode newer) in
  check_true "error names the version mismatch"
    (contains_substring msg "newer");
  ignore
    (get_error "version 0 refused"
       (History.decode
          (J.pretty (J.Obj [ ("schema_version", J.Num 0.); ("records", J.List []) ]))));
  ignore (get_error "missing header refused" (History.decode "{\"records\": []}"))

let history_append_accumulates () =
  with_tmp (fun dir ->
      let path = Filename.concat dir "hist.json" in
      check_true "missing file is an empty trajectory"
        (get_ok "load" (History.load ~path) = []);
      let a = sample ~seconds:1.0 () in
      let b = sample ~seconds:0.9 () in
      check_int "first append" 1
        (List.length (get_ok "append" (History.append ~path [ a ])));
      let all = get_ok "append" (History.append ~path [ b ]) in
      check_true "append preserves order" (all = [ a; b ]);
      check_true "reload agrees" (get_ok "load" (History.load ~path) = [ a; b ]);
      (* latest_by_key keeps the most recent record per key. *)
      check_true "latest wins" (History.latest_by_key all = [ b ]);
      ignore
        (get_error "corrupt file is an error"
           (let oc = open_out path in
            output_string oc "not json";
            close_out oc;
            History.load ~path)))

let history_encode_validates () =
  let bad = { (sample ()) with Record.seconds = Float.nan } in
  check_raises_invalid "encode refuses invalid records" (fun () ->
      ignore (History.encode [ bad ]))

(* ---------------- Gate ---------------- *)

let gate ?strict ?(threshold = 10.) ~baseline ~candidate () =
  Gate.compare ?strict ~threshold ~baseline ~candidate ()

let verdicts report =
  List.map (fun f -> f.Gate.verdict) report.Gate.findings

let gate_threshold_boundary () =
  let base = [ sample ~seconds:1.0 () ] in
  (* Exactly 10% slower: passes (strictly-greater semantics). *)
  let at = gate ~baseline:base ~candidate:[ sample ~seconds:1.1 () ] () in
  check_false "exactly at threshold passes" at.Gate.failed;
  (match verdicts at with
  | [ Gate.Within _ ] -> ()
  | _ -> Alcotest.fail "expected a single Within verdict");
  (* Just over: fails. *)
  let over = gate ~baseline:base ~candidate:[ sample ~seconds:1.11 () ] () in
  check_true "just over threshold fails" over.Gate.failed;
  (match verdicts over with
  | [ Gate.Regression { base_s; cand_s; _ } ] ->
      check_float ~tol:0. "baseline seconds" 1.0 base_s;
      check_float ~tol:0. "candidate seconds" 1.11 cand_s
  | _ -> Alcotest.fail "expected a single Regression verdict");
  (* Faster is of course fine; threshold 0 still allows exact equality. *)
  check_false "faster passes"
    (gate ~baseline:base ~candidate:[ sample ~seconds:0.5 () ] ()).Gate.failed;
  check_false "threshold 0 allows equal"
    (gate ~threshold:0. ~baseline:base ~candidate:[ sample ~seconds:1.0 () ] ())
      .Gate.failed;
  check_true "threshold 0 rejects any slowdown"
    (gate ~threshold:0. ~baseline:base ~candidate:[ sample ~seconds:1.0001 () ] ())
      .Gate.failed;
  check_raises_invalid "negative threshold" (fun () ->
      ignore (gate ~threshold:(-1.) ~baseline:base ~candidate:base ()))

let gate_missing_and_new_workloads () =
  let base = [ sample ~workload:"tv_curve" () ] in
  (* Empty baseline: everything is a new workload, gate passes. *)
  let fresh = gate ~baseline:[] ~candidate:base () in
  check_false "empty baseline passes" fresh.Gate.failed;
  (match verdicts fresh with
  | [ Gate.New_workload _ ] -> ()
  | _ -> Alcotest.fail "expected New_workload");
  (* A workload only in the candidate passes; one only in the baseline
     warns, and fails only under strict. *)
  let cand = [ sample ~workload:"empirical_tv" () ] in
  let drifted = gate ~baseline:base ~candidate:cand () in
  check_false "disappeared workload passes by default" drifted.Gate.failed;
  check_true "disappearance is still reported"
    (List.exists
       (function Gate.Disappeared _ -> true | _ -> false)
       (verdicts drifted));
  check_true "strict fails on disappearance"
    (gate ~strict:true ~baseline:base ~candidate:cand ()).Gate.failed

let gate_incorrect_fails () =
  let base = [ sample ~seconds:1.0 () ] in
  let fast_but_wrong = [ sample ~seconds:0.1 ~correct:false () ] in
  let report = gate ~baseline:base ~candidate:fast_but_wrong () in
  check_true "losing the correctness bit fails even when faster"
    report.Gate.failed;
  (match verdicts report with
  | [ Gate.Incorrect ] -> ()
  | _ -> Alcotest.fail "expected Incorrect, and no Disappeared double-report")

let gate_uses_latest_per_key () =
  (* Two baseline runs for the same key: only the newer one counts. *)
  let baseline = [ sample ~seconds:5.0 (); sample ~seconds:1.0 () ] in
  check_true "old slow baseline run is superseded"
    (gate ~baseline ~candidate:[ sample ~seconds:1.2 () ] ()).Gate.failed;
  (* Same on the candidate side: the re-run wins. *)
  let candidate = [ sample ~seconds:9.0 (); sample ~seconds:1.0 () ] in
  check_false "candidate re-run supersedes its slow first attempt"
    (gate ~baseline:[ sample ~seconds:1.0 () ] ~candidate ()).Gate.failed

let gate_rss_regression () =
  let base = [ sample_rss ~rss:1_000 () ] in
  (* Exactly 10% more RSS: passes, same boundary as timing. *)
  let at = gate ~baseline:base ~candidate:[ sample_rss ~rss:1_100 () ] () in
  check_false "exactly at threshold passes" at.Gate.failed;
  (match verdicts at with
  | [ Gate.Within _ ] -> ()
  | _ -> Alcotest.fail "expected Within at the boundary");
  (* Just over: fails with the dedicated verdict. *)
  let over = gate ~baseline:base ~candidate:[ sample_rss ~rss:1_101 () ] () in
  check_true "just over threshold fails" over.Gate.failed;
  (match verdicts over with
  | [ Gate.Rss_regression { base_kb; cand_kb; _ } ] ->
      check_int "baseline kB" 1_000 base_kb;
      check_int "candidate kB" 1_101 cand_kb
  | _ -> Alcotest.fail "expected a single Rss_regression verdict");
  (* A faster arm that ballooned its memory still fails — speed does
     not buy back the memory-bound claim. *)
  check_true "faster but fatter fails"
    (gate ~baseline:base
       ~candidate:[ sample_rss ~seconds:0.5 ~rss:2_000 () ]
       ())
      .Gate.failed;
  (* A time regression outranks the RSS verdict. *)
  (match
     verdicts
       (gate ~baseline:base ~candidate:[ sample_rss ~seconds:5.0 ~rss:9_000 () ] ())
   with
  | [ Gate.Regression _ ] -> ()
  | _ -> Alcotest.fail "expected the time Regression to outrank RSS");
  (* RSS is judged only when both sides measured it. *)
  check_false "missing candidate rss passes"
    (gate ~baseline:base ~candidate:[ sample_rss () ] ()).Gate.failed;
  check_false "missing baseline rss passes"
    (gate ~baseline:[ sample_rss () ] ~candidate:[ sample_rss ~rss:999_999 () ] ())
      .Gate.failed

(* ---------------- Cli: the exit codes CI keys off ---------------- *)

let write_history path records =
  Store.Io.write_atomic ~path (History.encode records)

let cli_compare_exit_codes () =
  with_tmp (fun dir ->
      let baseline = Filename.concat dir "base.json" in
      let candidate = Filename.concat dir "cand.json" in
      write_history baseline [ sample ~seconds:1.0 () ];
      write_history candidate [ sample ~seconds:1.05 () ];
      check_int "within threshold: 0" 0
        (Cli.compare ~threshold:10. ~baseline ~candidate ());
      write_history candidate [ sample ~seconds:2.0 () ];
      check_int "injected 2x regression: 1" 1
        (Cli.compare ~threshold:10. ~baseline ~candidate ());
      write_history candidate [ sample ~seconds:1.0 ~correct:false () ];
      check_int "lost correctness: 1" 1
        (Cli.compare ~threshold:10. ~baseline ~candidate ());
      write_history candidate [ sample ~workload:"other" () ];
      check_int "disappeared workload, default: 0" 0
        (Cli.compare ~threshold:10. ~baseline ~candidate ());
      check_int "disappeared workload, strict: 1" 1
        (Cli.compare ~strict:true ~threshold:10. ~baseline ~candidate ());
      check_int "missing baseline passes vacuously: 0" 0
        (Cli.compare ~threshold:10.
           ~baseline:(Filename.concat dir "nope.json")
           ~candidate ());
      check_int "missing candidate is an error: 2" 2
        (Cli.compare ~threshold:10. ~baseline
           ~candidate:(Filename.concat dir "nope.json")
           ());
      let oc = open_out candidate in
      output_string oc "not json";
      close_out oc;
      check_int "corrupt candidate is an error: 2" 2
        (Cli.compare ~threshold:10. ~baseline ~candidate ()))

let cli_history_exit_codes () =
  with_tmp (fun dir ->
      let history_path = Filename.concat dir "hist.json" in
      check_int "history of a missing file: 0" 0 (Cli.history ~path:history_path ());
      write_history history_path [ sample (); sample ~workload:"other" () ];
      check_int "history prints: 0" 0 (Cli.history ~path:history_path ());
      let oc = open_out history_path in
      output_string oc "not json";
      close_out oc;
      check_int "history of a corrupt file: 2" 2 (Cli.history ~path:history_path ()))

(* ---------------- append_run: what the bench harness calls ---------------- *)

let history_append_run () =
  with_tmp (fun dir ->
      let path = Filename.concat dir "hist.json" in
      let prov =
        { History.rev = "deadbee"; host = "ci-box"; timestamp = 1754600000. }
      in
      let run = [ sample ~workload:"tv_curve" (); sample_rss ~rss:512 () ] in
      let records =
        get_ok "append_run" (History.append_run ~path ~provenance:prov run)
      in
      check_int "every record returned" 2 (List.length records);
      check_true "provenance stamped on every record"
        (List.for_all
           (fun (r : Record.t) ->
             r.Record.rev = "deadbee" && r.Record.host = "ci-box"
             (* lint: allow float-equality — the stamp is copied, not computed *)
             && r.Record.timestamp = 1754600000.)
           records);
      check_true "only provenance changes"
        (List.map
           (fun (r : Record.t) ->
             { r with rev = "unknown"; host = "unknown"; timestamp = 0. })
           records
        = run);
      check_true "history holds exactly the returned records"
        (get_ok "load" (History.load ~path) = records);
      (* An invalid record anywhere in the run appends nothing. *)
      let before = Store.Io.read_file path in
      let bad = { (sample ()) with Record.seconds = Float.nan } in
      ignore
        (get_error "invalid record rejected"
           (History.append_run ~path ~provenance:prov [ sample (); bad ]));
      check_true "history byte-identical after a rejected run"
        (Store.Io.read_file path = before))

let suites =
  [
    ( "bench.json",
      [
        test "parse basics" json_parse_basics;
        test "parse rejects malformed input" json_parse_rejects;
        test "print/parse round-trip" json_print_round_trip;
        test "int_field 2^53 boundaries" json_int_field_boundaries;
        qcheck json_int_field_safe_range;
      ] );
    ( "bench.record",
      [
        qcheck record_json_round_trip;
        test "validation rejects NaN/inf/empty/bad-jobs" record_validation;
        test "peak_rss_kb is additive and round-trips" record_rss_round_trip;
        test "key discriminates quick/jobs/arm, not timings"
          record_key_discriminates;
      ] );
    ( "bench.history",
      [
        test "encode/decode round-trip" history_round_trip;
        test "newer schema version refused" history_schema_bump_detected;
        test "append accumulates atomically" history_append_accumulates;
        test "encode validates records" history_encode_validates;
        test "append_run stamps provenance, all or nothing" history_append_run;
      ] );
    ( "bench.gate",
      [
        test "threshold boundary: exactly-at passes, just-over fails"
          gate_threshold_boundary;
        test "missing baseline and new/disappeared workloads"
          gate_missing_and_new_workloads;
        test "lost correctness fails even when faster" gate_incorrect_fails;
        test "latest record per key wins" gate_uses_latest_per_key;
        test "rss regression: boundary, precedence, absence"
          gate_rss_regression;
      ] );
    ( "bench.cli",
      [
        test "compare exit codes" cli_compare_exit_codes;
        test "history exit codes" cli_history_exit_codes;
      ] );
  ]

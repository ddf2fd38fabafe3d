(* The serve layer: CLI flag conflicts, wire protocol strictness, the
   panel-coalescing scheduler's bit-identity against serial
   evaluation, and the server's admission / deadline / drain
   behaviour over a real Unix-domain socket. *)

module P = Serve.Protocol

let check = Alcotest.(check bool)

(* --- Cli_flags ---------------------------------------------------------- *)

let flags_ok dir no_cache = Ok { Serve.Cli_flags.dir; no_cache }

let cli_flags_matrix () =
  let resolve stores no_cache_count =
    Serve.Cli_flags.resolve_store ~stores ~no_cache_count
  in
  check "defaults" true (resolve [] 0 = flags_ok None false);
  check "one store" true (resolve [ "/tmp/s" ] 0 = flags_ok (Some "/tmp/s") false);
  check "no-cache" true (resolve [] 1 = flags_ok None true);
  check "duplicate store rejected" true
    (Result.is_error (resolve [ "/tmp/a"; "/tmp/b" ] 0));
  check "same store twice still rejected" true
    (Result.is_error (resolve [ "/tmp/a"; "/tmp/a" ] 0));
  check "store + no-cache rejected" true
    (Result.is_error (resolve [ "/tmp/s" ] 1));
  check "duplicate no-cache rejected" true (Result.is_error (resolve [] 2))

(* --beta vs --betas: single point, grid, or neither — never both. The
   grid points must be the exact floats the per-point path would see
   ([lo +. float i *. step], no accumulation), so per-β output stays
   byte-identical. *)
let cli_flags_betas () =
  let resolve beta betas = Serve.Cli_flags.resolve_betas ~beta ~betas in
  check "neither defaults to beta 1.0" true
    (resolve None None = Ok (Serve.Cli_flags.Beta_single 1.0));
  check "single point" true
    (resolve (Some 0.5) None = Ok (Serve.Cli_flags.Beta_single 0.5));
  check "conflict rejected" true
    (Result.is_error (resolve (Some 0.5) (Some "0.1:1.0:0.1")));
  (match resolve None (Some "0.1:0.4:0.1") with
  | Ok (Serve.Cli_flags.Beta_grid pts) ->
      check "inclusive endpoint" true (List.length pts = 4);
      List.iteri
        (fun i p ->
          check
            (Printf.sprintf "grid point %d bit-exact" i)
            true
            (Int64.bits_of_float p
            = Int64.bits_of_float (0.1 +. (float_of_int i *. 0.1))))
        pts
  | _ -> Alcotest.fail "grid should parse");
  (match resolve None (Some "2.0:2.0:0.5") with
  | Ok (Serve.Cli_flags.Beta_grid [ p ]) ->
      (* lint: allow float-equality — the one-point grid must be exactly lo *)
      check "degenerate grid" true (p = 2.0)
  | _ -> Alcotest.fail "lo = hi is a one-point grid");
  List.iter
    (fun s ->
      check (Printf.sprintf "%S rejected" s) true
        (Result.is_error (resolve None (Some s))))
    [ "0.1:1.0"; "0.1:1.0:0"; "0.1:1.0:-0.1"; "1.0:0.1:0.1"; "-0.5:1.0:0.5";
      "a:b:c"; "" ]

(* --- Protocol ------------------------------------------------------------ *)

let all_queries =
  [
    P.Mixing { game = "ring"; n = 6; beta = 1.5; eps = 0.25; replicas = 0; seed = 1 };
    P.Mixing { game = "curve"; n = 8; beta = 0.125; eps = 0.01; replicas = 40; seed = 9 };
    P.Stationary { game = "clique"; n = 5; beta = 2.0 };
    P.Hitting { game = "path"; n = 4; beta = 0.5 };
    P.Simulate { game = "pd"; n = 2; beta = 1.0; steps = 300; seed = 3 };
    P.Sample { game = "ring"; n = 6; beta = 1.0; count = 50; seed = 4 };
    P.Stats;
  ]

let request_roundtrip () =
  List.iteri
    (fun i query ->
      let deadline_ms = if i mod 2 = 0 then Some (17 * (i + 1)) else None in
      let req = { P.id = 1000 + i; deadline_ms; query } in
      match P.decode_request (P.encode_request req) with
      | Ok req' ->
          check (Printf.sprintf "request %d round-trips" i) true (req' = req)
      | Error msg -> Alcotest.failf "request %d rejected: %s" i msg)
    all_queries

let all_replies =
  [
    P.Mixing_r
      {
        P.size = 64;
        reversible = true;
        route = P.Spectral;
        tmix = Some 41;
        empirical = Some (41, 0.21);
        barrier = Some { P.d_global = 4.; d_local = 2.; zeta = 2. };
      };
    P.Mixing_r
      {
        P.size = 1024;
        reversible = false;
        route = P.Panel;
        tmix = None;
        empirical = None;
        barrier = None;
      };
    P.Stationary_r [| 0.25; 0.5; 0.125; 0.125 |];
    P.Hitting_r
      { P.size = 16; argmin = 0; phi_min = -4.; worst_hitting = 8.9; hit_tmix = Some 14 };
    P.Simulate_r [| 0; 3; 1; 2 |];
    P.Sample_r { samples = [| 5; 7 |]; max_window = 32 };
    P.Stats_r
      {
        P.served = 10; rejected = 1; expired = 2; failed = 0; batches = 4;
        max_batch = 8; panel_steps = 900; queue_peak = 8; chain_cache_hits = 6;
        chain_cache_misses = 2; store_hits = 1; store_misses = 1;
      };
  ]

let response_roundtrip () =
  let results =
    List.map (fun r -> Ok r) all_replies
    @ [
        Error P.Overloaded;
        Error P.Deadline_exceeded;
        Error (P.Bad_request "unknown game \"foo\"");
        Error (P.Server_error "boom");
      ]
  in
  List.iteri
    (fun i result ->
      let resp = { P.req_id = i; result } in
      match P.decode_response (P.encode_response resp) with
      | Ok resp' ->
          check (Printf.sprintf "response %d round-trips" i) true (resp' = resp)
      | Error msg -> Alcotest.failf "response %d rejected: %s" i msg)
    results

let corrupt_frames_rejected () =
  let req =
    { P.id = 7; deadline_ms = None; query = P.Stationary { game = "ring"; n = 4; beta = 1. } }
  in
  let frame = P.encode_request req in
  (* A single flipped payload byte must trip the CRC. *)
  let flipped = Bytes.of_string frame in
  let mid = Bytes.length flipped / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
  check "bit flip rejected" true
    (Result.is_error (P.decode_request (Bytes.to_string flipped)));
  check "truncation rejected" true
    (Result.is_error
       (P.decode_request (String.sub frame 0 (String.length frame - 3))));
  check "trailing bytes rejected" true
    (Result.is_error (P.decode_request (frame ^ "\x00")));
  (* Kind confusion: a response frame is not a request. *)
  let resp_frame = P.encode_response { P.req_id = 7; result = Error P.Overloaded } in
  check "response frame is not a request" true
    (Result.is_error (P.decode_request resp_frame));
  check "request frame is not a response" true
    (Result.is_error (P.decode_response frame))

let reader_reassembles_byte_by_byte () =
  let reqs =
    List.mapi
      (fun i query -> { P.id = i + 1; deadline_ms = None; query })
      [ P.Stats; P.Hitting { game = "ring"; n = 4; beta = 2. } ]
  in
  let buf = Buffer.create 256 in
  List.iter (fun r -> P.write_framed buf (P.encode_request r)) reqs;
  let stream = Buffer.contents buf in
  let reader = P.Reader.create () in
  let out = ref [] in
  String.iter
    (fun ch ->
      P.Reader.feed reader (Bytes.make 1 ch) ~len:1;
      match P.Reader.next reader with
      | Ok (Some frame) -> out := frame :: !out
      | Ok None -> ()
      | Error msg -> Alcotest.failf "reader error: %s" msg)
    stream;
  let decoded = List.rev_map (fun f -> P.decode_request f) !out in
  check "both frames recovered" true (decoded = List.map (fun r -> Ok r) reqs)

let reader_rejects_oversized_prefix () =
  let reader = P.Reader.create () in
  let evil = Bytes.create 4 in
  Bytes.set_int32_le evil 0 0x7fffffffl;
  P.Reader.feed reader evil ~len:4;
  check "oversized prefix is an error" true (Result.is_error (P.Reader.next reader));
  (* The error is sticky: the stream is unrecoverable. *)
  P.Reader.feed reader (Bytes.make 8 '\x00') ~len:8;
  check "error is sticky" true (Result.is_error (P.Reader.next reader))

(* --- Scheduler ----------------------------------------------------------- *)

(* 8 same-chain mixing queries with distinct eps (one with an
   empirical estimate): a coalescing group that settles at genuinely
   different steps. *)
let group_queries =
  List.mapi
    (fun i eps ->
      let replicas = if i = 3 then 5 else 0 in
      P.Mixing { game = "ring"; n = 6; beta = 1.0; eps; replicas; seed = 11 })
    [ 0.3; 0.25; 0.2; 0.15; 0.12; 0.1; 0.08; 0.05 ]

let jobs_of queries =
  List.mapi (fun i q -> { Serve.Scheduler.tag = (); req_id = i; deadline_ns = None; query = q }) queries

let serial_outcomes queries =
  (* A fresh engine per reference run: the serial arm must not see the
     batch engine's caches. *)
  let engine = Serve.Engine.create ~spectral_cutoff:0 () in
  List.map (fun q -> Serve.Engine.eval engine q) queries

let coalescing_bit_identity () =
  let reference = serial_outcomes group_queries in
  check "reference answers settle" true
    (List.for_all Result.is_ok reference);
  List.iter
    (fun domains ->
      let run pool =
        let engine = Serve.Engine.create ?pool ~spectral_cutoff:0 () in
        let stats = Serve.Scheduler.stats_zero () in
        let outcomes =
          Serve.Scheduler.run_batch engine stats (jobs_of group_queries)
          |> List.map snd
        in
        check
          (Printf.sprintf "one coalesced batch (pool=%d)" domains)
          true
          (stats.Serve.Scheduler.batches = 1
          && stats.Serve.Scheduler.max_batch = List.length group_queries
          && stats.Serve.Scheduler.panel_steps > 0);
        check
          (Printf.sprintf "bit-identical to serial (pool=%d)" domains)
          true (outcomes = reference)
      in
      if domains <= 1 then run None
      else Exec.Pool.with_pool ~domains (fun pool -> run (Some pool)))
    [ 1; 2; 4 ]

let mixed_batch_order_and_routes () =
  let queries =
    [
      P.Mixing { game = "ring"; n = 6; beta = 1.0; eps = 0.25; replicas = 0; seed = 1 };
      P.Stationary { game = "ring"; n = 4; beta = 1.0 };
      P.Mixing { game = "ring"; n = 4; beta = 2.0; eps = 0.2; replicas = 0; seed = 1 };
      P.Hitting { game = "ring"; n = 4; beta = 1.0 };
      P.Mixing { game = "ring"; n = 6; beta = 1.0; eps = 0.1; replicas = 0; seed = 1 };
      P.Mixing { game = "nope"; n = 4; beta = 1.0; eps = 0.25; replicas = 0; seed = 1 };
    ]
  in
  let reference = serial_outcomes queries in
  let engine = Serve.Engine.create ~spectral_cutoff:0 () in
  let stats = Serve.Scheduler.stats_zero () in
  let answered = Serve.Scheduler.run_batch engine stats (jobs_of queries) in
  check "input order preserved" true
    (List.map (fun (j, _) -> j.Serve.Scheduler.req_id) answered = [ 0; 1; 2; 3; 4; 5 ]);
  let outcomes = List.map snd answered in
  check "mixed batch matches serial" true
    (List.map2
       (fun got want ->
         match (got, want) with
         (* Engine.eval reports an unknown game as Bad_request too. *)
         | Error (P.Bad_request _), Error (P.Bad_request _) -> true
         | g, w -> g = w)
       outcomes reference
    |> List.for_all Fun.id);
  check "unknown game is Bad_request" true
    (match List.nth outcomes 5 with Error (P.Bad_request _) -> true | _ -> false)

let dead_on_arrival_deadline () =
  let engine = Serve.Engine.create ~spectral_cutoff:0 () in
  let stats = Serve.Scheduler.stats_zero () in
  let past = Int64.sub (Common.Clock.monotonic_ns ()) 1_000_000L in
  let mk i query = { Serve.Scheduler.tag = (); req_id = i; deadline_ns = Some past; query } in
  let jobs =
    [
      mk 0 (P.Mixing { game = "ring"; n = 6; beta = 1.0; eps = 0.25; replicas = 0; seed = 1 });
      mk 1 (P.Hitting { game = "ring"; n = 4; beta = 1.0 });
    ]
  in
  let outcomes = Serve.Scheduler.run_batch engine stats jobs |> List.map snd in
  check "expired panel job gets the typed error" true
    (List.nth outcomes 0 = Error P.Deadline_exceeded);
  check "expired serial job gets the typed error" true
    (List.nth outcomes 1 = Error P.Deadline_exceeded)

let spectral_group_identity () =
  (* Default cutoff: ring n=6 (64 states, reversible) takes the shared
     eigendecomposition; answers still match serial evaluation. *)
  let queries =
    List.map
      (fun eps -> P.Mixing { game = "ring"; n = 6; beta = 1.0; eps; replicas = 0; seed = 1 })
      [ 0.25; 0.1; 0.05 ]
  in
  let serial_engine = Serve.Engine.create () in
  let reference = List.map (fun q -> Serve.Engine.eval serial_engine q) queries in
  let engine = Serve.Engine.create () in
  let stats = Serve.Scheduler.stats_zero () in
  let outcomes = Serve.Scheduler.run_batch engine stats (jobs_of queries) |> List.map snd in
  check "spectral route" true
    (match List.nth outcomes 0 with
    | Ok (P.Mixing_r m) -> m.P.route = P.Spectral
    | _ -> false);
  check "no panel steps spent" true (stats.Serve.Scheduler.panel_steps = 0);
  check "bit-identical to serial" true (outcomes = reference)

(* A cross-β batch: three β planes of one (game, n) — two eps on one
   of them — settle in one fused family sweep, next to an unrelated
   key that gets its own one-plane sweep. Every reply must be the
   bytes per-request evaluation produces, and the step counter must
   charge each group its deepest plane's settle step, not the sum over
   planes. *)
let cross_beta_queries =
  [
    P.Mixing { game = "ring"; n = 6; beta = 0.5; eps = 0.25; replicas = 0; seed = 1 };
    P.Mixing { game = "ring"; n = 6; beta = 1.0; eps = 0.25; replicas = 0; seed = 1 };
    P.Mixing { game = "clique"; n = 4; beta = 1.0; eps = 0.2; replicas = 0; seed = 1 };
    P.Mixing { game = "ring"; n = 6; beta = 2.0; eps = 0.25; replicas = 0; seed = 1 };
    P.Mixing { game = "ring"; n = 6; beta = 1.0; eps = 0.05; replicas = 3; seed = 7 };
  ]

let frame_of i result = P.encode_response { P.req_id = i; result }

let tmix_of = function
  | Ok (P.Mixing_r { P.tmix = Some t; _ }) -> t
  | _ -> Alcotest.fail "expected a settled mixing reply"

let cross_beta_family_batch () =
  let reference = serial_outcomes cross_beta_queries in
  let ring, other =
    List.partition
      (fun (q, _) -> match q with P.Mixing { game = "ring"; _ } -> true | _ -> false)
      (List.combine cross_beta_queries reference)
  in
  let expected_steps =
    List.fold_left (fun acc (_, r) -> Int.max acc (tmix_of r)) 0 ring
    + List.fold_left (fun acc (_, r) -> acc + tmix_of r) 0 other
  in
  List.iter
    (fun domains ->
      let run pool =
        let engine = Serve.Engine.create ?pool ~spectral_cutoff:0 () in
        let stats = Serve.Scheduler.stats_zero () in
        let outcomes =
          Serve.Scheduler.run_batch engine stats (jobs_of cross_beta_queries)
          |> List.map snd
        in
        List.iteri
          (fun i (got, want) ->
            check
              (Printf.sprintf "reply %d bytes = serial (pool=%d)" i domains)
              true
              (String.equal (frame_of i got) (frame_of i want)))
          (List.combine outcomes reference);
        check
          (Printf.sprintf "panel_steps = deepest plane per group (pool=%d)" domains)
          true
          (stats.Serve.Scheduler.panel_steps = expected_steps)
      in
      if domains <= 1 then run None
      else Exec.Pool.with_pool ~domains (fun pool -> run (Some pool)))
    [ 1; 2; 4 ]

(* Query parameters are validated once, in the engine, for the serial
   and the coalesced path alike: a β that is not finite and
   non-negative, or an eps outside (0, 1), is a typed Bad_request —
   never an escaping exception, a vacuous t_mix(2) = 0, or a sweep
   that runs to the step budget. *)
let bad_betas = [ Float.nan; Float.infinity; Float.neg_infinity; -2. ]
let bad_eps = [ 0.; -1.; 1.; 2.; Float.nan ]

let is_bad_request = function Error (P.Bad_request _) -> true | _ -> false

let mixing_q ?(game = "ring") ?(n = 6) ?(eps = 0.25) beta =
  P.Mixing { game; n; beta; eps; replicas = 0; seed = 1 }

let engine_rejects_bad_params () =
  check "beta 0 accepted" true (Result.is_ok (Serve.Engine.check_beta 0.));
  check "eps 0.999 accepted" true (Result.is_ok (Serve.Engine.check_eps 0.999));
  let engine = Serve.Engine.create ~spectral_cutoff:0 () in
  List.iter
    (fun beta ->
      let name = Printf.sprintf "beta %g" beta in
      check (name ^ ": check_beta") true (Result.is_error (Serve.Engine.check_beta beta));
      check (name ^ ": entry") true
        (Result.is_error (Serve.Engine.entry engine ~game:"ring" ~n:4 ~beta));
      List.iter
        (fun q -> check (name ^ ": eval") true (is_bad_request (Serve.Engine.eval engine q)))
        [
          mixing_q ~n:4 beta;
          P.Stationary { game = "ring"; n = 4; beta };
          P.Hitting { game = "ring"; n = 4; beta };
        ])
    bad_betas;
  List.iter
    (fun eps ->
      let name = Printf.sprintf "eps %g" eps in
      check (name ^ ": check_eps") true (Result.is_error (Serve.Engine.check_eps eps));
      check (name ^ ": eval") true
        (is_bad_request (Serve.Engine.eval engine (mixing_q ~n:4 ~eps 1.0))))
    bad_eps;
  check "a good query still evaluates" true
    (Result.is_ok (Serve.Engine.eval engine (mixing_q ~n:4 1.0)))

(* One batch: every bad β and bad eps, interleaved with good queries on
   the same (game, n) key — so the bad ones sit in the very groups that
   the cross-β sweep settles. Each bad query gets its own Bad_request;
   every good one is still the serial answer. *)
let batch_isolates_bad_params () =
  let good = [ mixing_q 1.0; mixing_q ~eps:0.1 0.5; mixing_q ~game:"clique" ~n:4 1.0 ] in
  let bad = List.map mixing_q bad_betas @ List.map (fun eps -> mixing_q ~eps 1.0) bad_eps in
  let queries = List.concat_map (fun b -> [ b; List.hd good ]) bad @ good in
  let reference = serial_outcomes queries in
  let engine = Serve.Engine.create ~spectral_cutoff:0 () in
  let outcomes =
    Serve.Scheduler.run_batch engine (Serve.Scheduler.stats_zero ()) (jobs_of queries)
    |> List.map snd
  in
  List.iteri
    (fun i (q, (got, want)) ->
      let bad_q = List.mem q bad in
      check (Printf.sprintf "query %d typed as serial" i) true
        (if bad_q then is_bad_request got && is_bad_request want
         else Result.is_ok got && got = want))
    (List.combine queries (List.combine outcomes reference))

(* --- Server (socket level) ----------------------------------------------- *)

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "logitdyn-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

let with_server ?max_queue ?spectral_cutoff f =
  let socket_path = fresh_socket () in
  let engine = Serve.Engine.create ?spectral_cutoff () in
  let server = Serve.Server.create ?max_queue ~engine ~socket_path () in
  let d = Domain.spawn (fun () -> Serve.Server.serve_forever server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join d;
      try Unix.unlink socket_path with Unix.Unix_error _ -> ())
  @@ fun () -> f ~socket_path server

let overload_rejection () =
  with_server ~max_queue:0 @@ fun ~socket_path _server ->
  let q = P.Mixing { game = "ring"; n = 4; beta = 1.0; eps = 0.25; replicas = 0; seed = 1 } in
  (match Serve.Client.query ~socket_path q with
  | Ok (Error P.Overloaded) -> ()
  | other ->
      Alcotest.failf "expected Overloaded, got %s"
        (match other with
        | Ok (Ok _) -> "a reply"
        | Ok (Error _) -> "another error"
        | Error msg -> "transport error: " ^ msg));
  (* Stats bypasses the queue entirely and still counts the reject. *)
  match Serve.Client.query ~socket_path P.Stats with
  | Ok (Ok (P.Stats_r s)) ->
      check "reject counted" true (s.P.rejected = 1);
      check "nothing served through the queue" true (s.P.served = 0)
  | _ -> Alcotest.fail "stats not served under overload"

let cross_client_coalescing () =
  let reference = serial_outcomes group_queries in
  with_server ~spectral_cutoff:0 @@ fun ~socket_path _server ->
  let conns =
    List.map
      (fun _ ->
        match Serve.Client.connect ~socket_path with
        | Ok c -> c
        | Error msg -> Alcotest.failf "connect: %s" msg)
      group_queries
  in
  Fun.protect ~finally:(fun () -> List.iter Serve.Client.close conns)
  @@ fun () ->
  (* All eight requests go out before any response is awaited, so the
     server sees them as concurrent load from eight clients. *)
  List.iter2
    (fun c query ->
      match Serve.Client.send c { P.id = 1; deadline_ms = None; query } with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "send: %s" msg)
    conns group_queries;
  let outcomes =
    List.map
      (fun c ->
        match Serve.Client.recv c with
        | Ok resp -> resp.P.result
        | Error msg -> Alcotest.failf "recv: %s" msg)
      conns
  in
  check "eight clients, bit-identical to eight serial runs" true
    (outcomes = reference)

let drain_answers_in_flight () =
  with_server ~spectral_cutoff:0 @@ fun ~socket_path server ->
  let c =
    match Serve.Client.connect ~socket_path with
    | Ok c -> c
    | Error msg -> Alcotest.failf "connect: %s" msg
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close c)
  @@ fun () ->
  let total = 6 in
  for i = 1 to total do
    let query =
      P.Mixing
        { game = "ring"; n = 6; beta = 1.0; eps = 0.25 /. float_of_int i;
          replicas = 0; seed = 1 }
    in
    match Serve.Client.send c { P.id = i; deadline_ms = None; query } with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "send %d: %s" i msg
  done;
  (* Stop while the pipeline is (at least partly) in flight: the drain
     must still answer every request, in order. *)
  Serve.Server.stop server;
  for i = 1 to total do
    match Serve.Client.recv c with
    | Ok resp ->
        check (Printf.sprintf "response %d in order" i) true (resp.P.req_id = i);
        check (Printf.sprintf "response %d is an answer" i) true
          (Result.is_ok resp.P.result)
    | Error msg -> Alcotest.failf "response %d lost in drain: %s" i msg
  done;
  (* After the drain the server closes the connection. *)
  match Serve.Client.recv c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected EOF after drain"

let corrupt_bytes_get_bad_request () =
  with_server @@ fun ~socket_path _server ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  (* A well-formed length prefix over junk bytes: framing-level
     corruption the server must answer (id 0), not crash on. *)
  let junk = Bytes.make 12 '\xde' in
  let msg = Bytes.create 16 in
  Bytes.set_int32_le msg 0 12l;
  Bytes.blit junk 0 msg 4 12;
  let _ = Unix.write fd msg 0 16 in
  let reader = P.Reader.create () in
  let buf = Bytes.create 4096 in
  let rec next_frame () =
    match P.Reader.next reader with
    | Ok (Some frame) -> frame
    | Error msg -> Alcotest.failf "client reader: %s" msg
    | Ok None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Alcotest.fail "server closed without responding"
        | n ->
            P.Reader.feed reader buf ~len:n;
            next_frame ())
  in
  match P.decode_response (next_frame ()) with
  | Ok { P.req_id = 0; result = Error (P.Bad_request _) } -> ()
  | Ok _ -> Alcotest.fail "expected an id-0 Bad_request"
  | Error msg -> Alcotest.failf "undecodable response: %s" msg

(* A bad query must cost the daemon one typed reply, not its life: a
   later query on the same connection is still answered, and the
   counters see both. *)
let server_survives_bad_params () =
  with_server ~spectral_cutoff:0 @@ fun ~socket_path _server ->
  let ask q =
    match Serve.Client.query ~socket_path q with
    | Ok r -> r
    | Error msg -> Alcotest.failf "transport error (server down?): %s" msg
  in
  List.iter
    (fun q -> check "bad query gets Bad_request" true (is_bad_request (ask q)))
    [ mixing_q Float.nan; mixing_q Float.infinity; mixing_q (-2.);
      mixing_q ~eps:0. 1.0; mixing_q ~eps:2. 1.0 ];
  check "a later query is still answered" true
    (ask (mixing_q 1.0) = List.hd (serial_outcomes [ mixing_q 1.0 ]));
  match ask P.Stats with
  | Ok (P.Stats_r st) ->
      check "stats counts both kinds" true (st.P.served = 1 && st.P.failed = 5)
  | _ -> Alcotest.fail "stats not served"

(* The CLI's mixing routes — single β, the --betas grid, and the
   out-of-core path that calls Mixing.mixing_time_kernel directly —
   all exit 2 on the same invalid parameters. *)
let logitdyn_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/logitdyn.exe")

let cli_exit_code args =
  Sys.command
    (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote logitdyn_exe) args
       Filename.null)

let cli_exits_2_on_bad_params () =
  let seg = Filename.temp_file "logitdyn-test" ".seg" in
  Sys.remove seg;
  List.iter
    (fun args ->
      check (Printf.sprintf "`mixing %s` exits 2" args) true
        (cli_exit_code ("mixing ring -n 4 --no-cache " ^ args) = 2))
    [
      "--beta nan"; "--beta inf"; "--beta=-2"; "--eps 0"; "--eps 2"; "--eps=-1";
      "--betas 0.5:1.0:0.5 --eps 0"; "--betas 0.5:1.0:0.5 --eps 2";
      "--ooc --beta nan"; "--ooc --eps 0"; "--ooc --eps 2";
      "--segment " ^ Filename.quote seg ^ " --eps 2";
    ];
  check "no segment packed for a rejected query" false (Sys.file_exists seg)

(* The β → ∞ regime of Thms 3.8/3.9: utilities tie at a β so large
   that the softmax's log-normaliser loses the tie count. The chain
   must still build with unit row sums. *)
let cli_mixing_huge_beta () =
  List.iter
    (fun beta ->
      let args = "mixing ring -n 4 --no-cache --beta " ^ beta in
      check (Printf.sprintf "`%s` exits 0" args) true (cli_exit_code args = 0))
    [ "1e8"; "1e20"; "1e300" ]

(* simulate and sample build their games outside Serve.Engine, so they
   validate their inputs themselves. *)
let cli_simulate_sample_exit_2 () =
  List.iter
    (fun args ->
      check (Printf.sprintf "`%s` exits 2" args) true (cli_exit_code args = 2))
    [
      "simulate ring -n 4 --beta nan"; "simulate ring -n 4 --beta=-1";
      "simulate ring -n 4 --steps=-3"; "sample ring -n 4 --beta inf";
      "sample ring -n 4 --beta nan"; "sample ring -n 4 --count 0";
      "sample ring -n 4 --count=-2";
    ]

let suites =
  [
    ( "serve.cli-flags",
      [
        Alcotest.test_case "conflict matrix" `Quick cli_flags_matrix;
        Alcotest.test_case "beta grid resolution" `Quick cli_flags_betas;
      ] );
    ( "serve.protocol",
      [
        Alcotest.test_case "request round-trips" `Quick request_roundtrip;
        Alcotest.test_case "response round-trips" `Quick response_roundtrip;
        Alcotest.test_case "corrupt frames rejected" `Quick corrupt_frames_rejected;
        Alcotest.test_case "reader reassembles byte-by-byte" `Quick
          reader_reassembles_byte_by_byte;
        Alcotest.test_case "reader rejects oversized prefix" `Quick
          reader_rejects_oversized_prefix;
      ] );
    ( "serve.scheduler",
      [
        Alcotest.test_case "coalesced = serial (pools 1/2/4)" `Quick
          coalescing_bit_identity;
        Alcotest.test_case "mixed batch: order and routes" `Quick
          mixed_batch_order_and_routes;
        Alcotest.test_case "expired deadline is typed" `Quick
          dead_on_arrival_deadline;
        Alcotest.test_case "spectral group = serial" `Quick spectral_group_identity;
        Alcotest.test_case "cross-beta family batch = serial (pools 1/2/4)" `Quick
          cross_beta_family_batch;
        Alcotest.test_case "engine rejects bad beta and eps" `Quick
          engine_rejects_bad_params;
        Alcotest.test_case "bad params isolated within a batch" `Quick
          batch_isolates_bad_params;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "overload rejection" `Quick overload_rejection;
        Alcotest.test_case "cross-client coalescing" `Quick cross_client_coalescing;
        Alcotest.test_case "drain answers in-flight requests" `Quick
          drain_answers_in_flight;
        Alcotest.test_case "corrupt bytes get Bad_request" `Quick
          corrupt_bytes_get_bad_request;
        Alcotest.test_case "survives bad beta and eps" `Quick
          server_survives_bad_params;
      ] );
    ( "serve.cli",
      [
        Alcotest.test_case "mixing exits 2 on bad beta and eps" `Quick
          cli_exits_2_on_bad_params;
        Alcotest.test_case "mixing exits 0 at huge beta" `Quick
          cli_mixing_huge_beta;
        Alcotest.test_case "simulate and sample exit 2 on bad input" `Quick
          cli_simulate_sample_exit_2;
      ] );
  ]

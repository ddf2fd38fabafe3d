module R = Experiments.Registry

type pass = {
  pass_s : float;
  times : (string * float) list;  (** per experiment, seconds *)
  digests : (string * string) list;
  store : Store.Cas.stats;
  store_bytes : int;
}

let registry ids =
  let all = R.all @ R.extensions in
  match ids with None -> all | Some ids -> List.filter (fun e -> List.mem e.R.id ids) all

let one_pass ~work exps =
  let dir = Util.fresh_dir work "store" in
  let store = Store.Cas.open_ ~dir () in
  let capture = Filename.concat work "capture.txt" in
  let t0 = Util.now () in
  let runs =
    List.map
      (fun e ->
        let t = Util.now () in
        let out =
          Util.capture capture (fun () ->
              Trace.span ("experiments." ^ e.R.id) (fun () -> R.run_one ~store ~quick:true e))
        in
        (e.R.id, Util.since t, Digest.to_hex (Digest.string out)))
      exps
  in
  let pass_s = Util.since t0 in
  let store_bytes = List.fold_left (fun acc en -> acc + en.Store.Cas.size) 0 (Store.Cas.ls store) in
  let stats = Store.Cas.stats store in
  Util.rm_rf dir;
  {
    pass_s;
    times = List.map (fun (id, t, _) -> (id, t)) runs;
    digests = List.map (fun (id, _, d) -> (id, d)) runs;
    store = stats;
    store_bytes;
  }

let load_refs path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ id; digest ] -> Some (id, digest)
         | _ -> None)

(* Number of experiments whose digest differs from the reference. *)
let check refs p =
  List.fold_left
    (fun bad (id, got) ->
      match List.assoc_opt id refs with
      | Some want when want = got -> bad
      | want ->
          Report.info "MISMATCH experiments %s: digest %s, reference %s" id got
            (Option.value want ~default:"(none)");
          bad + 1)
    0 p.digests

let median = Summary.median

let run ~ids ~refs ~cli ~work ~seconds =
  let refs = load_refs refs in
  let exps = registry ids in
  let t0 = Util.now () in
  let rec loop acc =
    if List.length acc >= 2 && Util.since t0 >= seconds then List.rev acc
    else loop (one_pass ~work exps :: acc)
  in
  let passes = loop [] in
  let failed = List.fold_left (fun n p -> n + check refs p) 0 passes in
  (* Every timing is a median over the run's passes. On a shared host
     single passes vary by up to 1.7x; the fastest pass of a run would
     depend on whether the run caught a quiet moment. *)
  let per_experiment =
    List.map (fun e -> median (List.map (fun p -> List.assoc e.R.id p.times) passes)) exps
  in
  let pass_s = median (List.map (fun p -> p.pass_s) passes) in
  Report.info "experiments: %d passes, experiments_s=%.4f (median pass)" (List.length passes) pass_s;
  {
    Util.attempted = List.length passes * List.length exps;
    failed;
    metrics =
      [
        ("setup_s", Util.setup_s ~work ~reps:25 (fun dir -> Util.run_quiet cli [ "store"; "ls"; "--store"; dir ]));
        ("pass_s", pass_s);
        ("typical_ms", 1000. *. median per_experiment);
        ("tail_ms", 1000. *. Summary.max per_experiment);
        ("peak_rss_mb", Util.peak_rss_mb ());
      ];
  }

let traced ~ids ~refs ~work =
  let refs = load_refs refs in
  let exps = registry ids in
  let plain = one_pass ~work exps in
  Trace.enable ();
  let p = one_pass ~work exps in
  let failed = check refs plain + check refs p in
  {
    Util.attempted = 2 * List.length exps;
    failed;
    metrics =
      List.map
        (fun id -> ("experiments." ^ id ^ "_s", Trace.self_s ("experiments." ^ id)))
        Report.experiment_ids
      @ [
          ("store.hits", float_of_int p.store.Store.Cas.hits);
          ("store.misses", float_of_int p.store.Store.Cas.misses);
          ("store.writes", float_of_int p.store.Store.Cas.writes);
          ("store.bytes", float_of_int p.store_bytes);
          ("trace.overhead_pct", 100. *. ((p.pass_s /. plain.pass_s) -. 1.));
        ];
  }

let write_refs ~refs ~work =
  let p = one_pass ~work (registry None) in
  Out_channel.with_open_text refs (fun oc ->
      List.iter (fun (id, d) -> Printf.fprintf oc "%s %s\n" id d) p.digests)

let default_threshold = 10.

let err fmt = Format.eprintf ("bench: " ^^ fmt ^^ "@.")

let history ?(path = History.default_path) () =
  match History.load ~path with
  | Error msg ->
      err "%s" msg;
      2
  | Ok [] ->
      Format.printf "no bench history at %s@." path;
      0
  | Ok records ->
      Format.printf "# %s: %d records@." path (List.length records);
      List.iter (fun r -> Format.printf "%a@." Record.pp r) records;
      let latest = History.latest_by_key records in
      Format.printf "# latest per key (%d)@." (List.length latest);
      List.iter (fun r -> Format.printf "%a@." Record.pp r) latest;
      0

let compare ?(strict = false) ?(threshold = default_threshold) ~baseline
    ~candidate () =
  if not (Sys.file_exists candidate) then begin
    err "candidate trajectory %s does not exist" candidate;
    2
  end
  else
    match History.load ~path:candidate with
    | Error msg ->
        err "%s" msg;
        2
    | Ok cand -> (
        if not (Sys.file_exists baseline) then begin
          Format.printf
            "no baseline at %s: first run, gate passes vacuously@." baseline;
          0
        end
        else
          match History.load ~path:baseline with
          | Error msg ->
              err "%s" msg;
              2
          | Ok base ->
              let report =
                Gate.compare ~strict ~threshold ~baseline:base ~candidate:cand
                  ()
              in
              Format.printf "%a" Gate.pp_report report;
              if report.Gate.failed then 1 else 0)

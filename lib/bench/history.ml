let default_path = "BENCH_HISTORY.json"
let ( let* ) = Result.bind

let encode records =
  List.iter
    (fun r ->
      match Record.validate r with
      | Ok _ -> ()
      | Error msg -> invalid_arg ("Bench.History.encode: " ^ msg))
    records;
  Json.pretty
    (Json.Obj
       [
         ("schema_version", Json.Num (float_of_int Record.schema_version));
         ("records", Json.List (List.map Record.to_json records));
       ])

let decode s =
  let* j = Json.parse s in
  let* version = Json.int_field "schema_version" j in
  let* () =
    if version > Record.schema_version then
      Error
        (Printf.sprintf
           "trajectory schema_version %d is newer than supported %d (produced \
            by a newer logitdyn; refusing to misread it)"
           version Record.schema_version)
    else if version < 1 then
      Error (Printf.sprintf "bad trajectory schema_version %d" version)
    else Ok ()
  in
  let* records = Json.list_field "records" j in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
        match Record.of_json r with
        | Ok record -> go (i + 1) (record :: acc) rest
        | Error msg -> Error (Printf.sprintf "record %d: %s" i msg))
  in
  go 0 [] records

let load ~path =
  if not (Sys.file_exists path) then Ok []
  else
    match Store.Io.read_file path with
    | None -> Error (Printf.sprintf "%s: cannot read" path)
    | Some contents -> (
        match decode contents with
        | Ok records -> Ok records
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let append ~path records =
  let* existing = load ~path in
  let all = existing @ records in
  match Store.Io.write_atomic ~path (encode all) with
  | () -> Ok all
  | exception Sys_error msg -> Error msg
  | exception Invalid_argument msg -> Error msg

type provenance = { rev : string; host : string; timestamp : float }

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ | (exception _) -> "unknown")

let provenance () =
  {
    rev = git_rev ();
    host = (try Unix.gethostname () with _ -> "unknown");
    (* A timestamp, not a duration: wall clock is correct here. *)
    timestamp = Common.Clock.wall_s ();
  }

let append_run ?(path = default_path) ?provenance:prov records =
  let p = match prov with Some p -> p | None -> provenance () in
  let stamped =
    List.map
      (fun r ->
        { r with Record.rev = p.rev; host = p.host; timestamp = p.timestamp })
      records
  in
  let* _all = append ~path stamped in
  Ok stamped

let latest_by_key records =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun r ->
      let key = Record.key r in
      if not (Hashtbl.mem tbl key) then order := key :: !order;
      Hashtbl.replace tbl key r)
    records;
  List.rev_map (fun key -> Hashtbl.find tbl key) !order

let now = Common.Clock.monotonic_ns
let since t0 = Common.Clock.span_s ~since:t0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let counter = ref 0

let fresh_dir parent prefix =
  mkdir_p parent;
  let rec go () =
    incr counter;
    let d = Filename.concat parent (Printf.sprintf "%s-%d" prefix !counter) in
    if Sys.file_exists d then go () else d
  in
  go ()

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p

let capture path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  In_channel.with_open_bin path In_channel.input_all

let peak_rss_mb ?pid () =
  let kb =
    match pid with
    | None -> Common.Rss.peak_kb ()
    | Some p -> (
        match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" p) In_channel.input_all with
        | exception Sys_error _ -> None
        | text ->
            List.find_map
              (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
              (String.split_on_char '\n' text))
  in
  match kb with Some kb -> float_of_int kb /. 1024. | None -> Float.nan

let run_quiet exe args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) null null null in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (String.concat " " (exe :: args) ^ ": failed")

let setup_s ~work ~reps f =
  Summary.median
    (List.init reps (fun _ ->
         let dir = fresh_dir work "setup" in
         let t = now () in
         f dir;
         let s = since t in
         rm_rf dir;
         s))

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

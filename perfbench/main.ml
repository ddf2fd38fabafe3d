(* Entry point of the end-to-end benchmark; perfbench/run.py builds
   and runs it. One run = one workload, untraced (end-to-end metrics)
   or traced (per-layer metrics). The last stdout line is the JSON
   result; lines before it starting with "# " are information. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload experiments|mixing|daemon --seed N --seconds S --trace 0|1\n\
    \       [--cli-exe PATH] [--daemon-exe PATH] [--git-rev REV]\n\
    \       main.exe --write-refs";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--write-refs" :: rest -> parse (("write-refs", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get ?default k =
    match (List.assoc_opt k opts, default) with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> usage ()
  in
  let int_opt k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let refs = "perfbench/refs" and work = ".perfbench-work" in
  let exe = get ~default:"_build/default/bin/logitdynd.exe" "daemon-exe" in
  let cli = get ~default:"_build/default/bin/logitdyn.exe" "cli-exe" in
  if List.mem_assoc "write-refs" opts then begin
    Exp_wl.write_refs ~refs:(Filename.concat refs "experiments.md5") ~work;
    exit 0
  end;
  let workload = get "workload" and seed = int_opt "seed" and seconds = float_of_int (int_opt "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if not (List.mem workload [ "experiments"; "mixing"; "daemon" ]) then usage ();
  let ocaml = Sys.ocaml_version and git = get ~default:"unknown" "git-rev" in
  let nproc = Domain.recommended_domain_count () in
  Report.info "provenance workload=%s seed=%d seconds=%g trace=%b nproc=%d jobs=1 git=%s ocaml=%s"
    workload seed seconds traced nproc git ocaml;
  Report.info "configuration: Engine.create () defaults (spectral_cutoff=%d, max_steps=%d), store in a fresh directory"
    Serve.Engine.default_spectral_cutoff Serve.Engine.default_max_steps;
  let run_dir = Util.fresh_dir work "run" in
  let exp_refs = Filename.concat refs "experiments.md5" and mix_refs = Filename.concat refs "mixing.ref" in
  let outcomes, defs =
    Fun.protect ~finally:(fun () -> Util.rm_rf run_dir) @@ fun () ->
    if not traced then
      ( [
          (match workload with
          | "experiments" -> Exp_wl.run ~ids:None ~refs:exp_refs ~cli ~work:run_dir ~seconds
          | "mixing" -> Mix_wl.run Gen.Full ~seed ~refs:mix_refs ~cli ~work:run_dir ~seconds
          | _ -> Daemon_wl.run Gen.Full ~seed ~exe ~work:run_dir ~seconds);
        ],
        Report.end_to_end )
    else begin
      (* A traced run records every layer, whichever workload named it,
         so each traced run yields the full per-layer set. *)
      let e = Exp_wl.traced ~ids:None ~refs:exp_refs ~work:run_dir in
      let m = Mix_wl.traced Gen.Full ~seed ~refs:mix_refs in
      let d = Daemon_wl.traced Gen.Full ~seed ~exe ~work:run_dir in
      let o = [ e; m; d ] in
      Trace.write
        (Filename.concat work (Printf.sprintf "trace-%s-%d.json" workload seed))
        ~meta:[ ("workload", workload); ("seed", string_of_int seed); ("git", git); ("ocaml", ocaml) ];
      (o, Report.per_layer)
    end
  in
  let attempted = List.fold_left (fun n o -> n + o.Util.attempted) 0 outcomes in
  let failed = List.fold_left (fun n o -> n + o.Util.failed) 0 outcomes in
  Report.info "operations: attempted=%d succeeded=%d failed=%d" attempted (attempted - failed) failed;
  Report.result ~correct:(failed = 0) ~attempted ~failed
    ~metrics:(List.concat_map (fun o -> o.Util.metrics) outcomes)
    defs;
  exit (if failed = 0 then 0 else 1)

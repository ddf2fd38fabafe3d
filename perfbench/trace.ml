type span = {
  id : int;
  parent : int;
  name : string;
  req : int;
  start_ns : int64;
  stop_ns : int64;
}

let on = ref false
let all = ref []
let next_id = ref 1
let stack = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 16
let enable () = on := true

let push s = all := s :: !all

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let span ?(req = 0) name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start_ns = Common.Clock.monotonic_ns () in
    let finish () =
      let stop_ns = Common.Clock.monotonic_ns () in
      stack := List.tl !stack;
      push { id; parent; name; req; start_ns; stop_ns }
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let record ~name ~req ~start_ns ~stop_ns =
  if !on then push { id = fresh_id (); parent = 0; name; req; start_ns; stop_ns }

let count name v =
  if !on then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.
let dur s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

let self_s name =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.))
    !all;
  List.fold_left
    (fun acc s ->
      if s.name = name then
        acc +. dur s -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.
      else acc)
    0. !all

let write path ~meta =
  let oc = open_out path in
  let str s = Printf.sprintf "%S" s in
  output_string oc "{\"meta\":{";
  output_string oc
    (String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ str v) meta));
  output_string oc "},\"spans\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"req\":%d,\"start_ns\":%Ld,\"stop_ns\":%Ld}"
        s.id s.parent (str s.name) s.req s.start_ns s.stop_ns)
    (List.rev !all);
  output_string oc "],\"counters\":{";
  output_string oc
    (String.concat ","
       (Hashtbl.fold (fun k v acc -> Printf.sprintf "%s:%.17g" (str k) v :: acc) counters []));
  output_string oc "}}\n";
  close_out oc

(* A β-family: one shared CSR/CSC index structure, one probability
   plane per β. [v] rewrites every plane through
   [Chain.with_structure_of] so that when the sparsity structures agree
   (the common case — the payoff comparisons that decide which
   transitions exist are β-independent) all planes physically share
   plane 0's index arrays, and the fused multi-plane SpMM applies.
   When some plane's structure differs (softmax tail underflow at
   extreme β) the family still works — [shared] is false and every
   panel operation falls back to per-plane kernels, bit-identical
   either way. *)

type t = {
  betas : float array;
  planes : Chain.t array;
  shared : bool;
}

let v ~betas ~planes =
  let np = Array.length planes in
  if np = 0 then invalid_arg "Family.v: empty family";
  if Array.length betas <> np then
    invalid_arg "Family.v: betas and planes must have equal length";
  let base = planes.(0) in
  let size = Chain.size base in
  Array.iter
    (fun c ->
      if Chain.size c <> size then
        invalid_arg "Family.v: planes must share a state space")
    planes;
  let planes = Array.map (fun c -> Chain.with_structure_of ~base c) planes in
  let shared =
    Array.for_all (fun c -> Chain.same_structure base c) planes
  in
  { betas = Array.copy betas; planes; shared }

let num_planes t = Array.length t.planes
let size t = Chain.size t.planes.(0)
let betas t = Array.copy t.betas

let beta t i =
  if i < 0 || i >= Array.length t.betas then invalid_arg "Family.beta: index";
  t.betas.(i)

let plane t i =
  if i < 0 || i >= Array.length t.planes then invalid_arg "Family.plane: index";
  t.planes.(i)

let shared_structure t = t.shared

let find t ~beta:b =
  let key = Int64.bits_of_float b in
  let rec go i =
    if i >= Array.length t.betas then None
    else if Int64.bits_of_float t.betas.(i) = key then Some i
    else go (i + 1)
  in
  go 0

(* The panel advance over the [live] planes: fused over the shared
   structure when more than one live plane shares it, per-plane
   otherwise. Subsets of a shared family still share physically, so
   the fused path survives planes settling out of a sweep. *)
let select t live =
  let chains = Array.map (fun p -> t.planes.(p)) live in
  if t.shared && Array.length chains > 1 then fun ~pool ~k ~src ~dst ->
    Chain.evolve_many_shared_into ?pool chains ~k ~src ~dst
  else fun ~pool ~k ~src ~dst ->
    Array.iteri
      (fun i c -> Chain.evolve_many_into ?pool c ~k ~src:src.(i) ~dst:dst.(i))
      chains

let kernel t =
  Kernel.v ~size:(size t) ~planes:(num_planes t)
    ~evolve_into:(fun ~pool ~src ~dst ->
      Chain.evolve_into ?pool t.planes.(0) ~src ~dst)
    ~select:(select t)

let evolve_many_into ?pool t ~k ~src ~dst =
  let np = Array.length t.planes in
  if Array.length src <> np || Array.length dst <> np then
    invalid_arg "Family.evolve_many_into: need one src/dst panel per plane";
  select t (Array.init np Fun.id) ~pool ~k ~src ~dst

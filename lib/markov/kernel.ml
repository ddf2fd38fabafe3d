(* The evolution contract Mixing and Stationary consume: P probability
   planes over one state space. In-RAM chains ([of_chain]) and
   out-of-core segments ([Ooc.Segmented_chain.kernel]) are P = 1; a
   β-family ([Family.kernel]) is one plane per β. The sweep loops are
   written once over this record and stay bit-identical across storage
   layouts and plane counts.

   The pool travels as an explicit [option] (not [?pool]) because an
   optional argument followed only by labelled ones could never be
   erased at a call site anyway (warning 16). *)

type advance =
  pool:Exec.Pool.t option -> k:int -> src:Chain.panel array -> dst:Chain.panel array -> unit

type t = {
  size : int;
  planes : int;
  evolve_into :
    pool:Exec.Pool.t option -> src:float array -> dst:float array -> unit;
  select : int array -> advance;
}

let size t = t.size
let planes t = t.planes

let v ~size ~planes ~evolve_into ~select =
  if size <= 0 then invalid_arg "Kernel.v: size must be positive";
  if planes <= 0 then invalid_arg "Kernel.v: planes must be positive";
  { size; planes; evolve_into; select }

let one_plane ~size ~evolve_into ~evolve_many_into =
  v ~size ~planes:1 ~evolve_into ~select:(fun _live ~pool ~k ~src ~dst ->
      evolve_many_into ~pool ~k ~src:src.(0) ~dst:dst.(0))

let of_chain chain =
  one_plane ~size:(Chain.size chain)
    ~evolve_into:(fun ~pool ~src ~dst -> Chain.evolve_into ?pool chain ~src ~dst)
    ~evolve_many_into:(fun ~pool ~k ~src ~dst ->
      Chain.evolve_many_into ?pool chain ~k ~src ~dst)

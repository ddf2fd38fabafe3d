(** β-families: one shared index structure, per-β probability planes.

    Every quantity the paper bounds is studied as a function of β, so
    the repo's workloads are overwhelmingly β-grids over one game. The
    sparsity structure of the logit chain — which transitions exist —
    is decided by β-independent payoff comparisons, so across a grid
    the CSR/CSC index arrays are (almost always) identical and only the
    probability values differ. A family reifies that: [v] rewrites the
    planes through {!Chain.with_structure_of} so they physically share
    plane 0's index arrays whenever the structures agree, and
    {!evolve_many_into} advances one panel per plane in a single fused
    traversal of the shared structure
    ({!Chain.evolve_many_shared_into}).

    Sharing is checked, never assumed: a plane whose structure differs
    (softmax tails can underflow to exact zero at extreme β and drop
    entries) keeps its own arrays, {!shared_structure} is [false], and
    the panel operation silently falls back to per-plane
    {!Chain.evolve_many_into} — bit-identical either way, since the
    fused kernel's per-cell gather is exactly the per-plane one's.

    Each plane is a full first-class {!Chain.t} (built by
    [Logit.Logit_dynamics.chain_family] through the same
    [of_function] / [normalized_row] pipeline as an independent
    [chain ~beta] build, hence bit-identical to it), so everything that
    consumes a chain or a {!Kernel} works on a family member
    unchanged. *)

type t

(** [v ~betas ~planes] assembles a family from per-β chains:
    [planes.(i)] is the chain at inverse temperature [betas.(i)]. The
    arrays must be non-empty, of equal length, and the planes must
    share a state space ([Invalid_argument] otherwise). Planes whose
    sparsity structure equals plane 0's are rewritten to physically
    share its index arrays ({!Chain.with_structure_of} — observables
    unchanged, bit-for-bit). *)
val v : betas:float array -> planes:Chain.t array -> t

(** [num_planes t] is the number of β grid points. *)
val num_planes : t -> int

(** [size t] is the number of states (shared by every plane). *)
val size : t -> int

(** [betas t] is a copy of the β grid, in plane order. *)
val betas : t -> float array

(** [beta t i] is the inverse temperature of plane [i].
    Raises [Invalid_argument] if [i] is out of range. *)
val beta : t -> int -> float

(** [plane t i] is the chain at [beta t i] — a full {!Chain.t},
    bit-identical to an independent build at that β.
    Raises [Invalid_argument] if [i] is out of range. *)
val plane : t -> int -> Chain.t

(** [shared_structure t] is true iff every plane physically shares
    plane 0's index arrays — the precondition for the fused panel
    kernel (checked at build time, not assumed). *)
val shared_structure : t -> bool

(** [kernel t] is the whole family as one {!Kernel.t} with one plane
    per β, in grid order. Its panel advance over a live-plane subset
    runs the fused {!Chain.evolve_many_shared_into} when the structure
    is shared and more than one plane is live, and per-plane
    {!Chain.evolve_many_into} otherwise; its single-distribution evolve
    is plane 0's. {!Mixing.sweep} settles every plane of it in one
    lockstep sweep. *)
val kernel : t -> Kernel.t

(** [find t ~beta] is the index of the plane whose β equals [beta]
    bit-for-bit ([Int64.bits_of_float] comparison, matching the store
    keys' hex-float identity), or [None]. *)
val find : t -> beta:float -> int option

(** [evolve_many_into ?pool t ~k ~src ~dst] advances one
    [k]-distribution panel per plane: fused over the shared structure
    ({!Chain.evolve_many_shared_into}) when {!shared_structure},
    per-plane {!Chain.evolve_many_into} otherwise (always for a
    one-plane family) — bit-identical results either way, for any pool
    size. [src] and [dst] must hold
    one panel of dimension [k * size t] per plane, destinations
    pairwise distinct and distinct from every source
    ([Invalid_argument] otherwise). *)
val evolve_many_into :
  ?pool:Exec.Pool.t ->
  t ->
  k:int ->
  src:Chain.panel array ->
  dst:Chain.panel array ->
  unit

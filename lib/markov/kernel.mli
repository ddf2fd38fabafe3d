(** The evolution contract shared by in-RAM chains, out-of-core
    chains and β-families: P probability planes over one state space.

    {!Mixing} and {!Stationary} consume a chain only through this
    record, so their loops are written once over the storage layout and
    the plane count. {!of_chain} adapts an in-RAM {!Chain.t} and
    [Ooc.Segmented_chain.kernel] an on-disk segment, both with P = 1;
    {!Family.kernel} is a β-grid with one plane per β. The loops observe
    nothing but the evolved vectors, so the bit-identity guarantees of
    the underlying kernels carry through unchanged.

    The pool is an explicit [option] rather than a [?pool] optional:
    an optional argument followed only by labelled arguments could
    never be erased at a call site (OCaml warning 16), and the sweep
    loops always hold the pool as an option already. *)

(** A panel advance over a fixed set of live planes: [src.(i)] and
    [dst.(i)] are the [k]-row panels of the [i]-th live plane. Same
    per-panel contract as {!Chain.evolve_many_into}: each [dst] panel
    receives its [src] panel advanced one step, every row bit-identical
    to a single-distribution evolve, for any pool size. *)
type advance =
  pool:Exec.Pool.t option -> k:int -> src:Chain.panel array -> dst:Chain.panel array -> unit

type t = private {
  size : int;  (** number of states, shared by every plane *)
  planes : int;  (** P, the number of probability planes *)
  evolve_into :
    pool:Exec.Pool.t option -> src:float array -> dst:float array -> unit;
      (** the single-distribution evolve of plane 0 (the only plane
          when P = 1); same contract as {!Chain.evolve_into}. *)
  select : int array -> advance;
      (** [select live] is the panel advance for the planes listed in
          [live], a non-empty, strictly increasing subset of
          [0, planes). Callers select once per change of the live set
          and reuse the advance every step, so the per-subset setup
          (which planes, fused or not) is paid only when the set
          changes. *)
}

(** [size t] is the number of states. *)
val size : t -> int

(** [planes t] is the number of probability planes P. *)
val planes : t -> int

(** [v ~size ~planes ~evolve_into ~select] builds a kernel from its
    parts. Raises [Invalid_argument] on a non-positive size or plane
    count; the functions must honour the {!Chain} contracts (dimension
    checks, distinct src/dst, bit-identical panel rows). *)
val v :
  size:int ->
  planes:int ->
  evolve_into:
    (pool:Exec.Pool.t option -> src:float array -> dst:float array -> unit) ->
  select:(int array -> advance) ->
  t

(** [one_plane ~size ~evolve_into ~evolve_many_into] is the P = 1
    kernel over a single-distribution and a panel evolve. *)
val one_plane :
  size:int ->
  evolve_into:
    (pool:Exec.Pool.t option -> src:float array -> dst:float array -> unit) ->
  evolve_many_into:
    (pool:Exec.Pool.t option ->
    k:int ->
    src:Chain.panel ->
    dst:Chain.panel ->
    unit) ->
  t

(** [of_chain c] is the in-RAM chain [c] as a one-plane kernel: every
    call delegates to the corresponding {!Chain} kernel. *)
val of_chain : Chain.t -> t

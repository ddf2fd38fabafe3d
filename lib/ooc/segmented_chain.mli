(** Distribution evolution over an on-disk {!Segment}.

    Presents the same [evolve_into] / [evolve_many_into] contract as
    {!Markov.Chain}, streaming the matrix block by block instead of
    holding it in RAM. The gathers replay the in-RAM pull kernels
    exactly — ascending sources per destination, the same
    [mass > 0.] skip, the same register accumulation — so results
    are bit-identical to [Chain.evolve_into] on the same chain,
    serial or pooled, mmap or stream.

    Pooled runs shard the block table across domains. Blocks own
    disjoint column ranges, so every destination entry has exactly
    one writer and no synchronisation is needed; [~cost] is the
    average block nnz, which routes small segments down
    {!Exec.Pool}'s serial cutover. *)

type t

(** [of_segment seg] wraps an already-open segment. The wrapper does
    not own [seg]'s lifetime beyond {!close}. *)
val of_segment : Segment.t -> t

(** [open_ ?access path] opens a segment file for evolution;
    see {!Segment.open_} for validation and failure modes. *)
val open_ : ?access:Segment.access -> string -> (t, string) result

val close : t -> unit
val segment : t -> Segment.t
val size : t -> int
val nnz : t -> int

(** [evolve_into ?pool t ~src ~dst] writes one transition step of
    [src] into [dst], streaming blocks from disk. Same contract and
    bit-exact results as {!Markov.Chain.evolve_into}. *)
val evolve_into : ?pool:Exec.Pool.t -> t -> src:float array -> dst:float array -> unit

(** [evolve_many_into ?pool t ~k ~src ~dst] advances [k] row-major
    distributions one step; each panel row matches a
    single-distribution {!evolve_into} bit for bit. Same contract as
    {!Markov.Chain.evolve_many_into}. *)
val evolve_many_into :
  ?pool:Exec.Pool.t -> t -> k:int -> src:Markov.Chain.panel -> dst:Markov.Chain.panel -> unit

(** [kernel t] packages the two evolves as a one-plane
    {!Markov.Kernel.t}, the hand-off that lets
    {!Markov.Mixing.tv_curve_kernel},
    {!Markov.Mixing.mixing_time_kernel} and
    {!Markov.Stationary.by_power_kernel} run unchanged over an
    on-disk chain. *)
val kernel : t -> Markov.Kernel.t

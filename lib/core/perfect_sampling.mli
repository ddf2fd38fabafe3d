(** Perfect sampling from the Gibbs measure by coupling from the past
    (Propp–Wilson 1996).

    For binary-strategy games whose threshold update is {e monotone}
    (attractive: a player's probability of choosing 1 never decreases
    when opponents switch 0 → 1 — true for every graphical
    coordination game and more generally for ferromagnetic polymatrix
    games), the grand coupling driven by shared (player, U) randomness
    preserves the coordinate-wise order, so it suffices to run the two
    extreme chains from all-0 and all-1. Coupling from the past with
    doubling epochs then returns a sample distributed {e exactly}
    according to the stationary Gibbs measure — no mixing-time
    knowledge, no bias. The expected running time is O(t_mix·log n),
    so it inherits the paper's bounds: cheap on rings and at small β,
    exponential on cliques at large β. *)

(** [is_attractive game ~beta] checks monotonicity of the threshold
    update exhaustively: for every pair of comparable profiles x ≤ y
    and every player, σ_i(1|x) ≤ σ_i(1|y). Exponential in n — meant
    for validating game classes in tests. Requires binary strategies. *)
val is_attractive : Games.Game.t -> beta:float -> bool

(** [sample rng game ~beta] draws one exact stationary sample by CFTP.
    Requires binary strategies; correctness additionally requires the
    game to be attractive (see {!is_attractive}) — this is NOT checked
    here (it costs 4ⁿ); non-monotone games yield biased samples.
    [max_epochs] (default 20, i.e. 2²⁰ steps) bounds the backward
    doubling, and with it the memory of the stored moves; raises
    [Common.No_convergence] beyond it. *)
val sample : ?max_epochs:int -> Prob.Rng.t -> Games.Game.t -> beta:float -> int

(** [samples ?pool rng game ~beta ~count] draws independent exact
    samples, one {!Prob.Rng.split_n} stream per sample; [?pool] runs
    the CFTP replicas across domains with bit-identical output for any
    pool size. *)
val samples :
  ?max_epochs:int -> ?pool:Exec.Pool.t -> Prob.Rng.t -> Games.Game.t ->
  beta:float -> count:int -> int array

(** [coalescence_epoch rng game ~beta] runs one CFTP and also reports
    how far back it had to go: [(sample, steps)] where [steps] is the
    length of the final backward window — an empirical proxy for the
    mixing time that comes with a correctness certificate. *)
val coalescence_epoch :
  ?max_epochs:int -> Prob.Rng.t -> Games.Game.t -> beta:float -> int * int

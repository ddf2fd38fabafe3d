(** Shared evaluation engine behind the CLI and the daemon.

    One instance owns the in-memory chain cache (keyed by game id, n
    and the exact beta bits), the optional on-disk {!Store.Cas} warm
    cache, an optional domain pool for the SpMM kernels, and the
    mixing route policy. The CLI's serial paths and the daemon's
    coalescing scheduler both answer through this module — via the
    same {!Markov.Mixing.sweep} /
    {!Markov.Mixing.mixing_time_from_decomposition} primitives — which
    is what makes coalesced answers bit-identical to serial ones. Both
    validate query parameters through {!check_beta} and {!check_eps},
    so an invalid value is a [Bad_request] on either path. *)

type t

(** A built chain with everything derived from it once per (game, n,
    beta): the stationary distribution, reversibility, and a lazily
    cached eigendecomposition for the spectral route. *)
type entry = {
  spec : Catalog.spec;
  game : Games.Game.t;
  potential : (int -> float) option;
  chain : Markov.Chain.t;
  pi : float array;
  reversible : bool;
  mutable decomposition : (float array * Linalg.Mat.t) option;
}

val default_spectral_cutoff : int
val default_max_steps : int

(** [create ?pool ?store ?spectral_cutoff ?max_steps ()] — a
    reversible chain with at most [spectral_cutoff] states (default
    [2048], the CLI's historical policy; tests pass [0] to force the
    panel route) answers mixing queries through its
    eigendecomposition; everything else runs the blocked-SpMM panel
    with a budget of [max_steps] (default [5_000_000]) steps. Raises
    [Invalid_argument] on negative [max_steps]. *)
val create :
  ?pool:Exec.Pool.t -> ?store:Store.Cas.t -> ?spectral_cutoff:int ->
  ?max_steps:int -> unit -> t

val pool : t -> Exec.Pool.t option

(** The panel-route step budget. *)
val max_steps : t -> int

(** [check_beta beta] is [Ok ()] iff [beta] is finite and [>= 0]. *)
val check_beta : float -> (unit, string) result

(** [check_eps eps] is [Ok ()] iff [eps] lies in the open interval
    (0, 1); NaN is rejected. *)
val check_eps : float -> (unit, string) result

(** [entry t ~game ~n ~beta] builds (or returns the cached) chain
    entry; [Error] on a [beta] rejected by {!check_beta}, an unknown
    game or an oversized state space. Failed builds are cached too — a
    bad request does not get recomputed per retry. *)
val entry : t -> game:string -> n:int -> beta:float -> (entry, string) result

(** [spectral_route t e] — whether mixing queries on [e] go through
    the eigendecomposition. *)
val spectral_route : t -> entry -> bool

(** The (lazily computed, cached) eigendecomposition of an entry. *)
val decomposition : entry -> float array * Linalg.Mat.t

(** Every state of the entry's chain, the start set of exact d(t). *)
val all_starts : entry -> int list

(** Potential-barrier quantities, when the game has a potential. *)
val barrier_of : entry -> Protocol.barrier option

(** [empirical_of t e ~tmix ~replicas ~seed] is the Monte-Carlo TV
    estimate at [tmix] (or 1000 steps when [tmix] is [None]);
    [None] when [replicas <= 0]. *)
val empirical_of :
  t -> entry -> tmix:int option -> replicas:int -> seed:int ->
  (int * float) option

(** [mixing_reply_of t e ~tmix ~replicas ~seed] assembles the full
    mixing reply around an already-settled [tmix] — the scheduler uses
    this after a coalesced panel sweep. *)
val mixing_reply_of :
  t -> entry -> tmix:int option -> replicas:int -> seed:int -> Protocol.reply

(** [eval t q] answers a single query serially. A mixing query whose
    eps fails {!check_eps}, or any query whose beta fails
    {!check_beta}, is a [Bad_request]. [Stats] is not an engine query
    (the server owns the counters) and returns [Server_error]. *)
val eval : t -> Protocol.query -> (Protocol.reply, Protocol.error) result

(** (in-memory chain cache hits, misses) *)
val cache_stats : t -> int * int

(** (on-disk store hits, misses); zeros without a store. *)
val store_stats : t -> int * int

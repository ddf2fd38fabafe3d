(** Numerically stable computations with log-domain quantities.

    The logit update rule and the Gibbs measure exponentiate
    [β · potential] values; for large β these overflow [float]
    immediately, so every normalisation in the library is performed in
    the log domain through this module. *)

(** [logsumexp xs] is [log (Σ_i exp xs.(i))], computed stably by
    factoring out the maximum. Returns [neg_infinity] on an empty
    array or when all entries are [neg_infinity]. *)
val logsumexp : float array -> float

(** [logsumexp2 a b] is [log (exp a + exp b)] computed stably.
    Like {!logsumexp}, an infinite argument yields [infinity] (rather
    than the NaN of the naive [inf -. inf]). *)
val logsumexp2 : float -> float -> float

(** [normalize_logs xs] maps log-weights to a probability vector:
    entry [i] becomes [exp (xs.(i) - logsumexp xs)]. When that mass is
    off 1 by more than [1e-12] — [|max xs|] so large that it swamps
    the log of the tie count — it falls back to
    [exp ((xs.(i) - m) - log Σ exp (xs.(j) - m))] with [m = max xs];
    if [m = +inf] the result is uniform over the [+inf] entries (the
    β → ∞ limit of a softmax). All-[-inf] input raises
    [Invalid_argument]. *)
val normalize_logs : float array -> float array

(** [log1mexp x] is [log (1 - exp x)] for [x < 0], computed stably
    (switches between [log1p] and [expm1] at the canonical threshold
    [-ln 2]). Raises [Invalid_argument] for [x >= 0]. *)
val log1mexp : float -> float

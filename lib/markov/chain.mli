(** Finite Markov chains in CSR (compressed sparse row) representation.

    The logit dynamics on n players with m strategies each has mⁿ
    states but only n(m-1)+1 non-zero transitions per state, so the
    whole library works with sparse rows; dense matrices are
    materialised only for small state spaces (spectral analysis).

    Internally the rows live in three flat arrays — column indices,
    probabilities and per-row prefix sums, plus a row-offset array —
    so the hot kernels ([evolve_into], [apply], [sample_step], [prob])
    run over contiguous unboxed memory with zero allocation. Column
    indices are strictly increasing within every row (duplicates are
    summed and zeros dropped at construction), which is what makes the
    binary searches in [prob] and the sampler correct.

    A transposed (CSC) view is derived lazily on first use by the
    pull-mode kernels ([evolve_pull_into], [evolve_many_into], and any
    pooled [evolve_into]): per destination column, the source states in
    strictly increasing order with their probabilities. It is derived
    data — never serialised, rebuilt after {!of_csr} — and it makes
    distribution evolution a gather in which each destination is
    written by exactly one loop iteration, so the work can be chunked
    across {!Exec.Pool} domains while staying bit-identical to the
    serial push (scatter) kernel. *)

type t

(** [of_rows ?pool rows] validates and packs a chain: [rows.(i)] lists
    the non-zero transitions [(j, p)] out of state [i]. Requires every
    probability non-negative, row sums within [1e-9] of one, and
    column indices in range; duplicate columns within a row are
    summed. Row sums are renormalised exactly to one. Validation and
    normalisation are per-row independent; [?pool] distributes them
    across domains (identical results, any pool size). *)
val of_rows : ?pool:Exec.Pool.t -> (int * float) array array -> t

(** [of_function ?pool n row] tabulates [row i] for every state —
    with [?pool], rows are built and normalised in parallel, which is
    the hot path when materialising logit chains ([row] must be safe
    to call concurrently for distinct states). *)
val of_function : ?pool:Exec.Pool.t -> int -> (int -> (int * float) list) -> t

(** [normalized_row ~size i entries] is the exact validation +
    normalisation pipeline {!of_rows} applies to one row: column
    indices checked against [size], duplicates summed, zeros dropped,
    probabilities renormalised to exact mass one and sorted by
    column. Exposed so out-of-RAM row consumers ({!Ooc.Segment}'s
    streaming builder) store probabilities bit-identical to the
    in-RAM chain built from the same generator. Raises
    [Invalid_argument] exactly when {!of_rows} would. *)
val normalized_row : size:int -> int -> (int * float) array -> (int * float) array

(** [of_dense m] converts a dense stochastic matrix.
    Raises [Invalid_argument] if [m] is not square/stochastic. *)
val of_dense : Linalg.Mat.t -> t

(** [to_csr t] exposes the raw CSR arrays as copies: row offsets
    (length [size t + 1]), column indices and probabilities (length
    [nnz t]) — the serialisation surface behind {!Chain_codec}. The
    per-row prefix sums are derived data and deliberately not
    exposed; {!of_csr} recomputes them. *)
val to_csr : t -> int array * int array * float array

(** [of_csr ~row_start ~cols ~probs] rebuilds a chain from raw CSR
    arrays (copied, not aliased), validating the full invariant —
    offsets spanning the arrays with every row non-empty, columns in
    range and strictly increasing within each row, probabilities in
    (0, 1] and each row's mass within [1e-6] of one — and re-deriving
    the per-row prefix sums in construction order, so the rebuilt
    chain evolves and samples bit-identically to the one
    [to_csr] came from. Raises [Invalid_argument] on any violation
    (a decoded artifact must fail loudly, never yield a garbage
    chain). *)
val of_csr : row_start:int array -> cols:int array -> probs:float array -> t

(** [to_csc t] exposes the lazily-derived transposed layout as copies:
    column offsets (length [size t + 1]), source-state indices and
    probabilities (length [nnz t]). Slice
    [t_col_start.(j), t_col_start.(j+1)) lists the states [i] with
    [P(i, j) > 0] in strictly increasing order, probabilities
    bit-identical to the CSR entries they mirror. Derived data for the
    pull kernels and for tests — deliberately absent from
    {!Chain_codec} artifacts, whose frames and keys depend on the CSR
    arrays alone. *)
val to_csc : t -> int array * int array * float array

(** [size t] is the number of states. *)
val size : t -> int

(** [nnz t] is the total number of stored transitions. *)
val nnz : t -> int

(** [degree t i] is the number of stored transitions out of state [i]
    (at least 1: every row carries mass one). *)
val degree : t -> int -> int

(** [iter_row t i f] applies [f j p] to every stored transition
    [i → j] with probability [p], in increasing column order, without
    materialising the row. This is the allocation-free way to walk a
    row; prefer it over {!row} in loops. *)
val iter_row : t -> int -> (int -> float -> unit) -> unit

(** [row t i] is the sparse row of state [i], freshly allocated as a
    tuple array view over the CSR storage (sorted by column, safe to
    mutate). *)
val row : t -> int -> (int * float) array

(** [row_list t i] is the row as a list. *)
val row_list : t -> int -> (int * float) list

(** [prob t i j] is P(i, j) — a binary search over the sorted column
    slice of row [i], O(log degree). *)
val prob : t -> int -> int -> float

(** [evolve t mu] is the push-forward μP of the distribution vector
    [mu]. *)
val evolve : t -> float array -> float array

(** [evolve_into ?pool t ~src ~dst] writes the push-forward [src]·P
    into [dst] without allocating — the double-buffered kernel behind
    {!Mixing.tv_curve} and friends. [src] and [dst] must be distinct
    arrays of length [size t] ([Invalid_argument] otherwise). Without
    [?pool] this is the serial push (scatter) kernel; with [?pool] the
    destinations are gathered in pull mode and chunked across the
    pool's domains — unless the estimated work [nnz t] is below
    {!Exec.Pool.serial_cutover}, in which case the pooled call runs
    the serial push directly (dispatch overhead would dominate). Both
    paths produce bit-identical results (for each destination the
    contributions are summed over sources in increasing order either
    way), identical to {!evolve}. *)
val evolve_into : ?pool:Exec.Pool.t -> t -> src:float array -> dst:float array -> unit

(** [evolve_pull_into ?pool t ~src ~dst] is the pull-mode (gather)
    evolve over the transposed layout:
    [dst.(j) = Σᵢ src.(i)·P(i,j)] with sources visited in increasing
    [i], so the result is bit-identical to the push kernel while each
    destination is owned by exactly one writer — the race-free shape
    behind pooled single-distribution evolution. Same argument checks
    as {!evolve_into}, and like it allocates nothing per call. Exposed
    separately so the serial pull kernel can be tested against the
    push kernel directly. *)
val evolve_pull_into :
  ?pool:Exec.Pool.t -> t -> src:float array -> dst:float array -> unit

(** A flat row-major panel of [k] distributions over the state space:
    distribution [r] occupies indices [r*size t, (r+1)*size t) of a
    Float64 {!Bigarray.Array1}. *)
type panel = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [evolve_many_into ?pool t ~k ~src ~dst] advances all [k]
    distributions of the [src] panel one step into [dst] in a single
    traversal of the transition matrix (blocked SpMM): the matrix
    columns stream once per block of distributions — the block sized so
    its panel slices fit in L2 — so matrix traffic is amortised over
    the block instead of being re-read per distribution. Every panel
    row of the result is bit-identical to a single-distribution
    {!evolve_into} of that row, for any pool size and any block size
    (per destination the sources are summed in increasing order, and
    each [(r, j)] cell is written by exactly one iteration). [src] and
    [dst] must be distinct panels of dimension [k * size t]
    ([Invalid_argument] otherwise). *)
val evolve_many_into : ?pool:Exec.Pool.t -> t -> k:int -> src:panel -> dst:panel -> unit

(** [same_structure a b] is true iff [a] and [b] have identical sparsity
    structure: equal size and element-wise equal [row_start]/[cols]
    arrays (physical sharing short-circuits). Two chains over the same
    game at different β usually agree — the β-independent payoff
    comparisons determine which transitions exist — but softmax tail
    underflow can drop entries at extreme β, so structure sharing is a
    checked property, never an assumption. *)
val same_structure : t -> t -> bool

(** [with_structure_of ~base t] is [t] with its CSR index arrays (and
    CSC view) physically shared with [base] when
    [same_structure base t]; otherwise [t] unchanged. The probabilities
    and prefix sums remain [t]'s own, and the pre-seeded CSC view
    carries [t]'s probabilities permuted in exactly the
    counting-transpose slot order the lazy derivation would use — pure
    copies, no arithmetic — so every observable of the result is
    bit-identical to [t]'s. This is the memory/locality backbone of
    {!Family}: one β-grid's planes share one set of index arrays. *)
val with_structure_of : base:t -> t -> t

(** [evolve_many_shared_into ?pool planes ~k ~src ~dst] advances one
    [k]-distribution panel per plane in a single fused traversal of the
    planes' shared index structure: the transposed column slices are
    read once per (plane, block) pair while the probability planes vary,
    amortising index traffic across the β-grid. Requires a non-empty
    [planes] array whose members all satisfy
    [same_structure planes.(0)], and [src]/[dst] arrays with one panel
    of dimension [k * size] per plane, destinations pairwise distinct
    and distinct from every source ([Invalid_argument] otherwise). The
    per-cell gather is exactly {!evolve_many_into}'s (sources in
    increasing order, one writer per destination cell), so each plane's
    [dst] is bit-identical to a per-plane [evolve_many_into] call, for
    any pool size. The pool dispatch is over the flat
    (plane × block × destination) space with the same per-item cost
    calibration as {!evolve_many_into}, so below-cutover grids never
    dispatch regardless of the number of planes. *)
val evolve_many_shared_into :
  ?pool:Exec.Pool.t -> t array -> k:int -> src:panel array -> dst:panel array -> unit

(** [apply ?pool t f] is the function application Pf,
    [(Pf)(i) = Σ_j P(i,j) f(j)] — already gather-mode over the CSR
    rows, so [?pool] chunks the rows across domains race-free with
    bit-identical results. *)
val apply : ?pool:Exec.Pool.t -> t -> float array -> float array

(** [to_dense t] materialises the dense transition matrix. *)
val to_dense : t -> Linalg.Mat.t

(** [sample_step rng t i] draws the next state from P(i, ·) by binary
    search on the precomputed per-row prefix sums — O(log degree) per
    step with no allocation, and bit-compatible with the historical
    linear scan (same prefix sums, same tie-breaking). *)
val sample_step : Prob.Rng.t -> t -> int -> int

(** [sample_step_of t i ~u] is the deterministic core of
    {!sample_step}: the next state selected by the uniform draw
    [u ∈ [0, 1)]. The entry chosen is the first whose running prefix
    sum exceeds [u]; a [u] at or beyond the accumulated row mass
    (reachable only through floating-point rounding) falls back to the
    last stored entry, which is strictly positive by construction.
    Exposed for boundary testing and for callers that manage their own
    uniform variates (e.g. common random numbers couplings). *)
val sample_step_of : t -> int -> u:float -> int

(** [simulate rng t ~start ~steps] returns the trajectory
    [x₀ = start, x₁, ..., x_steps] (length [steps + 1]). *)
val simulate : Prob.Rng.t -> t -> start:int -> steps:int -> int array

(** [hitting_time rng t ~start ~target ~max_steps] simulates until the
    chain first reaches a state satisfying [target]; [None] if not hit
    within [max_steps]. A [start] already satisfying [target] hits at
    time 0. Raises [Invalid_argument] on a bad [start] or a negative
    [max_steps]. *)
val hitting_time :
  Prob.Rng.t -> t -> start:int -> target:(int -> bool) -> max_steps:int ->
  int option

(** [is_irreducible t] tests strong connectivity of the transition
    graph (two BFS passes, forward and backward). *)
val is_irreducible : t -> bool

(** [is_aperiodic t] tests aperiodicity (gcd of cycle lengths via BFS
    levels; sufficient check: some state has a self-loop, otherwise a
    full gcd computation on the strongly-connected chain). *)
val is_aperiodic : t -> bool

(** [is_reversible ?tol t pi] checks detailed balance
    π(x)P(x,y) = π(y)P(y,x) for all edges. *)
val is_reversible : ?tol:float -> t -> float array -> bool

(** [edge_measure t pi i j] is Q(i,j) = π(i)·P(i,j). *)
val edge_measure : t -> float array -> int -> int -> float

(** [lazy_version t] is the chain ½(I + P) — aperiodic by
    construction, same stationary distribution. *)
val lazy_version : t -> t

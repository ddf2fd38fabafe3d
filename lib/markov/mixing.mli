(** Exact mixing-time computation.

    The worst-case total variation distance at time t is

    {v d(t) = max_x ‖Pᵗ(x,·) - π‖_TV, v}

    computed by evolving the point masses of a set of start states in
    lockstep. For modest state spaces all states can serve as starts;
    for structured games it suffices to pass the profiles known to be
    extremal (e.g. the potential minimisers), which is validated in the
    test suite. The paper's convention t_mix = t_mix(1/4) is the
    default. *)

(** [sweep ?pool kernel ~pis ~starts ~decide] is the one
    panel-evolution loop behind every exact-TV entry point below, the
    daemon's coalesced groups and the out-of-core path. It evolves the
    point masses of [starts] under each of the kernel's P planes in
    lockstep; [pis.(p)] is plane [p]'s stationary distribution.

    After every TV refresh (including step 0, before any evolution)
    [decide ~plane ~step ~worst] is called, in increasing plane order,
    for each plane that has not settled, with that plane's
    worst-over-starts TV distance. Returning [true] settles the plane:
    it stops evolving, and the sweep returns once every plane has
    settled. Each step is one {!Kernel.t} advance over the live planes
    (fused over a shared β-family structure while more than one is
    live), with no allocation of live-set bookkeeping between settles.

    Per plane, the (step, worst) sequence [decide] observes is
    bit-identical to a one-plane sweep over that plane alone, for any
    storage layout and pool size: the batching only amortises matrix
    and index traffic. [decide] must eventually settle every plane
    (e.g. on a step bound or a deadline); the loop imposes no budget.
    Raises [Invalid_argument] if [pis] does not hold one distribution
    of length [Kernel.size kernel] per plane, or on an empty or
    out-of-range start set. *)
val sweep :
  ?pool:Exec.Pool.t -> Kernel.t -> pis:float array array -> starts:int list ->
  decide:(plane:int -> step:int -> worst:float -> bool) -> unit

(** [tv_curve ?pool t pi ~starts ~steps] is the array [d(0); d(1); ...;
    d(steps)] of worst-case (over [starts]) TV distances. The starts
    live in one double-buffered row-major panel advanced by the blocked
    SpMM {!Chain.evolve_many_into} — one matrix traversal per step for
    all starts, no allocation after setup regardless of [steps]. With
    [?pool] the destination sweep of each step runs across domains;
    results are bit-identical to the serial per-start sweep for any
    pool size. *)
val tv_curve :
  ?pool:Exec.Pool.t -> Chain.t -> float array -> starts:int list -> steps:int ->
  float array

(** [tv_curve_kernel] is {!tv_curve} over a one-plane {!Kernel.t} —
    the out-of-core entry point; [tv_curve ?pool t] delegates here via
    {!Kernel.of_chain}. Raises [Invalid_argument] on a multi-plane
    kernel. *)
val tv_curve_kernel :
  ?pool:Exec.Pool.t -> Kernel.t -> float array -> starts:int list -> steps:int ->
  float array

(** [mixing_time ?pool ?eps ?max_steps t pi ~starts] is the least t
    with d(t) ≤ eps (default 1/4), or [None] if it exceeds [max_steps]
    (default [1_000_000]). By monotonicity of d(·) the scan stops at
    the first success. Runs on the same blocked SpMM panel as
    {!tv_curve}; [?pool] parallelises the per-step destination
    sweep. *)
val mixing_time :
  ?pool:Exec.Pool.t -> ?eps:float -> ?max_steps:int -> Chain.t -> float array ->
  starts:int list -> int option

(** [mixing_time_kernel] is {!mixing_time} over a one-plane
    {!Kernel.t} — the out-of-core entry point; [mixing_time ?pool t]
    delegates here via {!Kernel.of_chain}. Raises [Invalid_argument] on
    a multi-plane kernel. *)
val mixing_time_kernel :
  ?pool:Exec.Pool.t -> ?eps:float -> ?max_steps:int -> Kernel.t -> float array ->
  starts:int list -> int option

(** [mixing_time_all ?pool ?eps ?max_steps t pi] uses every state as a
    start (exact d(t), O(size²) memory traffic per step). *)
val mixing_time_all :
  ?pool:Exec.Pool.t -> ?eps:float -> ?max_steps:int -> Chain.t -> float array ->
  int option

(** [family_mixing_times ?pool ?eps ?max_steps family ~pis ~starts] is
    the whole β-grid's mixing times in one fused sweep: element [i] is
    the least t with d(t) ≤ [eps] (default 1/4) for plane [i], or
    [None] past [max_steps] (default [1_000_000]) — each element
    bit-identical to {!mixing_time_kernel} on that plane alone. It is
    {!sweep} over {!Family.kernel}. *)
val family_mixing_times :
  ?pool:Exec.Pool.t -> ?eps:float -> ?max_steps:int -> Family.t ->
  pis:float array array -> starts:int list -> int option array

(** [tv_at t pi ~start ~steps] is ‖Pᵗ(start,·) - π‖_TV at [t = steps]
    only: the one-start {!sweep} stopped at [steps], bit-identical to
    [(tv_curve t pi ~starts:[start] ~steps).(steps)]. Raises
    [Invalid_argument] on a negative [steps] or an out-of-range
    [start]. *)
val tv_at : Chain.t -> float array -> start:int -> steps:int -> float

(** [empirical_tv ?pool rng t pi ~start ~steps ~replicas] estimates the
    TV distance at time [steps] by simulating [replicas] independent
    chains and comparing the empirical law against π. The estimate is
    positively biased by sampling noise ≈ √(size/replicas); it is used
    only for state spaces too large for exact evolution. Replica [r]
    is driven by stream [r] of {!Prob.Rng.split_n}, so for a fixed
    seed the estimate is bit-identical whether it is computed serially
    or on a pool of any size. Raises [Invalid_argument] on an
    out-of-range [start], a negative [steps], or [replicas < 1]. *)
val empirical_tv :
  ?pool:Exec.Pool.t -> Prob.Rng.t -> Chain.t -> float array -> start:int ->
  steps:int -> replicas:int -> float

(** [upper_mixing_time_spectral ~gap ~pi_min ~eps] is the spectral
    upper bound t_rel·log(1/(ε·π_min)) of Theorem 2.3, with
    [t_rel = 1/gap]. *)
val upper_mixing_time_spectral : gap:float -> pi_min:float -> eps:float -> float

(** [lower_mixing_time_spectral ~gap ~eps] is the spectral lower bound
    (t_rel - 1)·log(1/2ε) of Theorem 2.3. *)
val lower_mixing_time_spectral : gap:float -> eps:float -> float

(** [mixing_time_spectral ?eps ?max_steps t pi ~starts] computes the
    exact mixing time of a {e reversible} chain through its full
    eigendecomposition: with A = D^{1/2} P D^{-1/2} = U Λ Uᵀ,
    Pᵗ(x,y) = Σ_k λ_kᵗ u_k(x) u_k(y) √(π(y)/π(x)), so whether
    d(t) <= eps can be decided at any t without stepping the chain.
    Since d(·) is non-increasing, the answer is found by doubling +
    binary search — O(log t_mix) probes — which makes exponentially
    large mixing times (large β) computable exactly. A probe costs
    O(|starts|·size²) only in the worst case: it stops at the first
    start whose TV sum passes eps, and within that start at the first
    state where it does, trying the start that last failed first.
    Falls back on [None] when t_mix exceeds [max_steps] (default
    [max_int / 4]). Requires reversibility (checked). *)
val mixing_time_spectral :
  ?eps:float -> ?max_steps:int -> Chain.t -> float array -> starts:int list ->
  int option

(** [decompose t pi] is the eigendecomposition [(eigenvalues, U)] of
    the symmetrised chain, for repeated
    {!mixing_time_from_decomposition} queries. *)
val decompose : Chain.t -> float array -> float array * Linalg.Mat.t

(** [mixing_time_from_decomposition ?eps ?max_steps ~decomposition pi
    ~starts] is {!mixing_time_spectral} driven by a caller-supplied
    eigendecomposition — e.g. the tridiagonal one of a birth–death
    chain, which avoids the dense Jacobi solve entirely. Raises
    [Invalid_argument] before any probe on an empty or out-of-range
    start, a U whose row count is not [Array.length pi], or a U with
    fewer columns than there are eigenvalues. *)
val mixing_time_from_decomposition :
  ?eps:float -> ?max_steps:int -> decomposition:float array * Linalg.Mat.t ->
  float array -> starts:int list -> int option

(** [mixing_time_squaring ?eps ?max_steps t pi ~starts] computes the
    exact mixing time by repeated squaring of the dense transition
    matrix: Pᵗ is assembled from precomputed P^(2^k) factors and the
    monotone d(·) is binary-searched bit by bit. O(size³·log t_mix) —
    slower than the spectral route but numerically robust even when
    π_min underflows toward 1e-300 (products of stochastic matrices
    stay stochastic; rows are renormalised after every multiply).
    Guarded to [size <= 768]. *)
val mixing_time_squaring :
  ?eps:float -> ?max_steps:int -> Chain.t -> float array -> starts:int list ->
  int option

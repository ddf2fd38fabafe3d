(** Stationary distributions of finite chains. *)

(** [by_power ?pool ?tol ?max_iter t] iterates μ ↦ μP from the uniform
    distribution until the L¹ movement per step drops below [tol]
    (default [1e-12]); suitable for any ergodic chain. With [?pool]
    each step runs the pull-mode evolve chunked across domains —
    bit-identical to the serial iteration, same convergence point and
    iteration count. Raises [Common.No_convergence] if [max_iter]
    (default [10_000_000]) is exhausted. *)
val by_power :
  ?pool:Exec.Pool.t -> ?tol:float -> ?max_iter:int -> Chain.t -> float array

(** [by_power_kernel] is {!by_power} generalised over the storage
    layout via {!Kernel.t} — the entry point for out-of-core
    segmented chains, whose π must come from power iteration because
    the transition matrix never fully resides in RAM. [by_power
    ?pool t] is literally [by_power_kernel ?pool (Kernel.of_chain
    t)], so both paths share one movement loop and one convergence
    point. On a multi-plane kernel it iterates plane 0. *)
val by_power_kernel :
  ?pool:Exec.Pool.t -> ?tol:float -> ?max_iter:int -> Kernel.t -> float array

(** [by_solve t] computes π exactly (up to LU round-off) by solving
    the linear system [πᵀ(P - I) = 0, Σπ = 1]. Dense O(n³); intended
    for state spaces up to a few thousand states. *)
val by_solve : Chain.t -> float array

(** [residual t pi] is ‖πP - π‖₁, a cheap quality measure. *)
val residual : Chain.t -> float array -> float

(** [is_stationary ?tol t pi] is [residual t pi <= tol]
    (default [1e-8]). *)
val is_stationary : ?tol:float -> Chain.t -> float array -> bool

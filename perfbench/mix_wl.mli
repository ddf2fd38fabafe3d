(** The [mixing] workload: what [logitdyn mixing] does, through a fresh
    default [Serve.Engine] (with a store in a fresh directory) per
    query. Single-β queries go through [Engine.eval]; the β-grid goes
    through [Scheduler.run_batch], as [logitdyn mixing --betas] does.
    Every answer is checked against a panel-route t_mix for the same
    query, computed untimed — or, for a query listed in
    [refs/mixing.ref], against the panel-route value recorded there. *)

(** The [Large] query once, then passes of the per-pass list for
    [seconds] (at least two). Set-up is timed as the
    [logitdyn] executable [cli] starting and creating a store. *)
val run :
  Gen.profile -> seed:int -> refs:string -> cli:string -> work:string -> seconds:float ->
  Util.outcome

(** One pass and the [Large] query, answered by calling each layer's
    public functions in the order [Engine.eval] does, each call inside
    a span. *)
val traced : Gen.profile -> seed:int -> refs:string -> Util.outcome

(** The [experiments] workload: the quick reproduction registry, every
    experiment through [Experiments.Registry.run_one] (which is what
    [run_all] does), serially, against a fresh store per pass. Each
    experiment's printed tables are digested and compared with the
    reference digests in [refs/experiments.md5]. *)

(** [run ~ids ~refs ~cli ~work ~seconds] repeats passes until [seconds]
    have elapsed (at least two). [ids] restricts the registry (the smoke
    profile); [None] is all 19. Set-up is timed as the [logitdyn]
    executable [cli] starting and creating a store. *)
val run :
  ids:string list option -> refs:string -> cli:string -> work:string -> seconds:float ->
  Util.outcome

(** One untraced pass, then tracing on and one traced pass:
    per-experiment times, store counters and the tracing overhead (the
    traced pass against the untraced one). *)
val traced : ids:string list option -> refs:string -> work:string -> Util.outcome

(** One pass; writes the digests to [refs]. *)
val write_refs : refs:string -> work:string -> unit

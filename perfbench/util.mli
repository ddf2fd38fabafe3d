(** File-system and clock helpers shared by the workloads. *)

(** Seconds elapsed since a {!Common.Clock.monotonic_ns} reading. *)
val since : int64 -> float

val now : unit -> int64

(** [fresh_dir parent prefix] is a new, not yet existing path
    [parent/prefix-K]; [parent] is created if needed. *)
val fresh_dir : string -> string -> string

(** Recursive delete; a missing path is fine. *)
val rm_rf : string -> unit

(** [capture path f] runs [f] with the process's stdout redirected to
    [path] and returns what [f] printed. *)
val capture : string -> (unit -> unit) -> string

(** Peak resident set ([VmHWM]) of process [pid] ([None]: this
    process), in MB. *)
val peak_rss_mb : ?pid:int -> unit -> float

(** [run_quiet exe args] runs [exe] with output discarded and waits
    for it; raises [Failure] unless it exits 0. *)
val run_quiet : string -> string list -> unit

(** [setup_s ~work ~reps f] is the median time of [reps] calls of [f]
    on a fresh directory under [work]. *)
val setup_s : work:string -> reps:int -> (string -> unit) -> float

(** Outcome of one workload section. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(** Metric catalogue and the result line.

    The names and units here are the ones [BENCHMARK.json] lists; the
    benchmark's tests check that the two agree. *)

type better = Lower | Higher

type def = { name : string; unit_ : string; better : better }

(** End-to-end metrics, printed by every untraced run. *)
val end_to_end : def list

(** The experiment ids, in registry order. *)
val experiment_ids : string list

(** Per-layer metrics, printed by every traced run. *)
val per_layer : def list

(** [info fmt ...] prints one ["# "]-prefixed informational line to
    stdout. *)
val info : ('a, unit, string, unit) format4 -> 'a

(** [result ~correct ~attempted ~failed ~metrics defs] prints the
    final JSON line. Every name in [defs] must have a finite value in
    [metrics]; raises [Invalid_argument] otherwise, so a run never
    reports a partial set. *)
val result :
  correct:bool -> attempted:int -> failed:int -> metrics:(string * float) list ->
  def list -> unit

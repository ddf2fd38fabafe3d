(** In-memory spans and counters recorded by the benchmark around its
    calls into the program's layers.

    Off by default; when off, {!span} is a direct call and {!count}
    does nothing. Spans are kept in memory and written out once, by
    {!write}, when the run ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  req : int;  (** request the span belongs to; 0 when none *)
  start_ns : int64;
  stop_ns : int64;
}

val enable : unit -> unit

(** [span ?req name f] runs [f], recording a span named [name] whose
    parent is the innermost enclosing span. *)
val span : ?req:int -> string -> (unit -> 'a) -> 'a

(** [record ~name ~req ~start_ns ~stop_ns] adds a root span with given
    bounds — for intervals the benchmark observes rather than calls,
    such as a daemon request from its due time to its reply. *)
val record : name:string -> req:int -> start_ns:int64 -> stop_ns:int64 -> unit

(** [count name v] adds [v] to counter [name]. *)
val count : string -> float -> unit

val counter : string -> float

(** Sum over spans named [name] of their self time (duration minus the
    part covered by child spans), in seconds. *)
val self_s : string -> float

(** [write path ~meta] writes every span and counter as JSON, with
    [meta] as string fields. *)
val write : string -> meta:(string * string) list -> unit

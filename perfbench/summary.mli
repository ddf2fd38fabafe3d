(** Order statistics for the benchmark's reports. *)

(** Median (mean of the two middle values for an even count). Raises
    [Invalid_argument] on an empty list. *)
val median : float list -> float

(** Minimum number of samples that must lie above a reported
    percentile. *)
val min_beyond : int

(** [percentile ~p xs] is the nearest-rank [p]-th percentile of [xs],
    or [None] unless at least {!min_beyond} samples lie strictly above
    its rank — a tail figure is reported only when the sample supports
    it. *)
val percentile : p:float -> float list -> float option

val max : float list -> float

(** Seeded SplitMix64 generator for the benchmark's inputs. *)

type t

val create : int -> t

(** [int t bound] is uniform in [\[0, bound)]. Raises
    [Invalid_argument] on [bound <= 0]. *)
val int : t -> int -> int

val pick : t -> 'a array -> 'a

(** A shuffled copy. *)
val shuffle : t -> 'a array -> 'a array

(** The benchmark's inputs, generated from the workload seed.

    The program under test sees only these generated queries; the seed
    picks orders, games and tolerances, never a configuration. *)

type profile =
  | Full  (** what the benchmark measures *)
  | Smoke  (** tiny sizes, for the benchmark's own tests *)

type mixing_class =
  | Small  (** a single-β reversible query at 128 states *)
  | Grid  (** a [--betas] grid, answered as one scheduler batch *)
  | Large  (** a single-β query past the spectral cutoff *)

type mixing_query = {
  cls : mixing_class;
  game : string;
  n : int;
  betas : float list;  (** one β for [Small] and [Large] *)
  eps : float;
}

val class_name : mixing_class -> string

(** The per-pass query list of the mixing workload: the three [Small]
    queries and the [Grid], in seeded order. *)
val mixing_pass : profile -> seed:int -> mixing_query list

(** The one [Large] query of a mixing run. *)
val mixing_large : profile -> mixing_query

(** How a phase's requests arrive. *)
type arrival =
  | Closed  (** one client: each request is sent when the previous reply arrives *)
  | Open of float  (** requests per second, sent on schedule whatever is outstanding *)

type phase = { arrival : arrival; queries : Serve.Protocol.query array }

(** The daemon schedule: a closed-loop phase, which pays every key's
    cold build, then open-loop phases in increasing rate. Each [Full]
    phase has at least 200 requests, so its p95 has 10 samples beyond
    it. *)
val daemon_phases : profile -> seed:int -> phase list

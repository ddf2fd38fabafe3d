(** The panel-coalescing scheduler.

    {!run_batch} takes everything the server read in one loop
    iteration and answers it: mixing queries on the same game id and n
    — across β and across clients — are coalesced into {e one}
    {!Markov.Mixing.sweep} with one kernel plane per β. A single β
    sweeps its chain ({!Markov.Kernel.of_chain}); several β build one
    {!Markov.Family} from the entries' chains and advance through the
    fused multi-plane SpMM ({!Markov.Family.kernel}), one traversal of
    the shared index structure per step for the whole β-grid. Each
    request retires at its own eps either way; reversible small chains
    share their entry's cached eigendecomposition per β instead. All
    other queries are evaluated serially in arrival order. A mixing
    query with an eps outside (0, 1) or a β that is not finite and
    non-negative is answered [Bad_request] without touching the other
    requests.

    Answers are bit-identical to per-request serial evaluation — both
    paths run the same primitives over the same floats. Deadlines are
    enforced between panel steps and before every serial evaluation;
    an expired request gets the typed {!Protocol.Deadline_exceeded},
    never a silent drop. *)

(** A unit of admitted work. ['a] is the caller's routing tag (the
    server keeps the owning client there); the scheduler never looks
    at it. *)
type 'a job = {
  tag : 'a;
  req_id : int;
  deadline_ns : int64 option;
      (** absolute {!Common.Clock.monotonic_ns} instant, fixed at
          admission *)
  query : Protocol.query;
}

(** Cumulative counters, reported through the [Stats] query. *)
type stats = {
  mutable batches : int;
  mutable max_batch : int;  (** widest batch so far *)
  mutable panel_steps : int;  (** total coalesced SpMM panel steps *)
}

val stats_zero : unit -> stats

(** [run_batch engine stats jobs] answers every job, returning
    [(job, outcome)] pairs in the input order (so per-client response
    order follows request order). Never raises: engine failures
    surface as {!Protocol.Server_error} outcomes. *)
val run_batch :
  Engine.t -> stats -> 'a job list ->
  ('a job * (Protocol.reply, Protocol.error) result) list

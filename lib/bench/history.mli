(** The append-only performance trajectory: every bench run appends
    its records to one schema'd [BENCH_HISTORY.json], so the perf
    story of the repo is a single ordered file — the only artifact the
    bench harness writes.

    File shape:
    {v
    { "schema_version": 1, "records": [ { ...Record... }, ... ] }
    v}

    Writes go through {!Store.Io.write_atomic} (temp file + rename),
    so a killed bench run can never leave a torn trajectory. *)

(** The canonical trajectory filename, relative to the repo root. The
    single source of truth — the lint rule [bench-json-outside-bench]
    keeps other modules from spelling BENCH filenames themselves. *)
val default_path : string

(** [encode records] renders a trajectory file (pretty-printed, with
    the current {!Record.schema_version} header). Raises
    [Invalid_argument] if a record fails {!Record.validate} — callers
    must not be able to write an unreadable trajectory. *)
val encode : Record.t list -> string

(** [decode s] parses a trajectory file. A [schema_version] newer
    than {!Record.schema_version} is an error ("produced by a newer
    logitdyn"), as is any record that fails validation. *)
val decode : string -> (Record.t list, string) result

(** [load ~path] reads the trajectory at [path]; a missing file is
    [Ok []] (an empty trajectory), an unreadable or malformed one is
    [Error _]. *)
val load : path:string -> (Record.t list, string) result

(** [append ~path records] loads, appends and atomically rewrites.
    Returns the new full trajectory. *)
val append : path:string -> Record.t list -> (Record.t list, string) result

(** What {!append_run} stamps on every record of a run. *)
type provenance = { rev : string; host : string; timestamp : float }

(** [append_run ?path ?provenance records] is how a bench run reports:
    it stamps every record with [provenance] (default: the current git
    short revision, ["unknown"] outside a work tree, the hostname and
    the unix time) and {!append}s them to [path] (default
    {!default_path}). A record that fails {!Record.validate} appends
    nothing and leaves the file untouched. Returns the stamped
    records. *)
val append_run :
  ?path:string ->
  ?provenance:provenance ->
  Record.t list ->
  (Record.t list, string) result

(** [latest_by_key records] keeps, for every {!Record.key}, only the
    last (most recently appended) record — the "current state" view
    the gate and the history table both start from. Ordered by first
    appearance of each key. *)
val latest_by_key : Record.t list -> Record.t list

(** Exit-code-returning entry points behind [logitdyn bench ...]. They
    live in the library — not [bin/] — so the gate tests drive the
    exact code path CI does and assert on the same exit codes.

    Exit codes: [0] success / gate pass, [1] gate fail (regression,
    lost correctness, or — under [--strict] — a disappeared workload),
    [2] I/O or decode error. *)

(** [history ~path ()] prints the trajectory: every record in append
    order, then the latest-per-key summary. A missing file is an
    empty trajectory (exit 0). *)
val history : ?path:string -> unit -> int

(** [compare ~baseline ~candidate ~threshold ()] loads the two
    trajectory files and runs {!Gate.compare}. A missing [baseline]
    file passes (first run ever); a missing [candidate] is an error
    (exit 2) — the run being gated must have produced records. *)
val compare :
  ?strict:bool ->
  ?threshold:float ->
  baseline:string ->
  candidate:string ->
  unit ->
  int

(** Default [--threshold] for {!compare}: percent slowdown allowed
    before the gate fails. *)
val default_threshold : float

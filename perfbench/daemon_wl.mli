(** The [daemon] workload: a real [logitdynd serve] with default flags
    (its store in a fresh directory), driven open loop over one
    connection at fixed rates. Every reply is compared bit for bit
    with the frame an in-process [Engine.eval] answer encodes to. *)

(** [run profile ~seed ~exe ~work ~seconds] spawns the daemon 25
    times (setup), runs every phase of the seeded schedule on the last
    one, then reruns the closed-loop phase warm until [seconds] have
    elapsed (at least three passes), and replays each query in
    process. *)
val run : Gen.profile -> seed:int -> exe:string -> work:string -> seconds:float -> Util.outcome

(** The middle phase only, with every query replayed (not memoised)
    so each gets its in-process service time. *)
val traced : Gen.profile -> seed:int -> exe:string -> work:string -> Util.outcome

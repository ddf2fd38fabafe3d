module P = Serve.Protocol

type profile = Full | Smoke
type mixing_class = Small | Grid | Large

type mixing_query = {
  cls : mixing_class;
  game : string;
  n : int;
  betas : float list;
  eps : float;
}

let class_name = function Small -> "small" | Grid -> "grid" | Large -> "large"

(* The β-grid is parsed by the CLI's own resolver so each point carries
   exactly the bits `logitdyn mixing --betas` would. *)
let grid_betas spec =
  match Serve.Cli_flags.resolve_betas ~beta:None ~betas:(Some spec) with
  | Ok (Serve.Cli_flags.Beta_grid bs) -> bs
  | Ok (Serve.Cli_flags.Beta_single b) -> [ b ]
  | Error msg -> invalid_arg msg

let eps_choices = [| 0.2; 0.25; 0.3 |]

let mixing_pass profile ~seed =
  let rng = Rand.create seed in
  let small_n, grid_n, grid_spec =
    match profile with Full -> (7, 6, "0.5:2:0.25") | Smoke -> (4, 3, "0.5:1:0.25")
  in
  let small =
    Array.to_list
      (Array.map
         (fun game ->
           { cls = Small; game; n = small_n; betas = [ 1.0 ]; eps = Rand.pick rng eps_choices })
         (Rand.shuffle rng [| "ring"; "curve"; "dominant" |]))
  in
  (* The grid's game is fixed: Jacobi's sweep count, and so the grid's
     cost, differs between games. *)
  let grid =
    {
      cls = Grid;
      game = "ring";
      n = grid_n;
      betas = grid_betas grid_spec;
      eps = Rand.pick rng eps_choices;
    }
  in
  (* The grid lands at a seeded position among the single-β queries. *)
  let pos = Rand.int rng 4 in
  List.filteri (fun i _ -> i < pos) small @ (grid :: List.filteri (fun i _ -> i >= pos) small)

(* Fixed, not seeded: the panel route's cost is proportional to t_mix,
   so a seeded β or eps would move this query's time between seeds. *)
let mixing_large = function
  | Full -> { cls = Large; game = "ring"; n = 12; betas = [ 0.25 ]; eps = 0.4 }
  | Smoke -> { cls = Large; game = "matching-pennies"; n = 2; betas = [ 1.0 ]; eps = 0.25 }

type arrival = Closed | Open of float
type phase = { arrival : arrival; queries : P.query array }

let games = [| "ring"; "curve"; "dominant"; "clique" |]
let betas = [| 0.5; 1.0; 2.0 |]

(* CFTP sampling and the hitting query's panel mixing time grow
   exponentially in β on the clique; those two kinds stay on keys that
   answer in milliseconds. *)
let cheap (game, n, beta) = beta <= 1.0 && not (game = "clique" && n >= 6 && beta >= 1.0)

(* A phase is a run of blocks with one fixed composition: each key's
   mixing query once, then two each of stationary, simulate, sample and
   hitting. The seed shuffles each block and rotates the tolerances and
   keys, so the work per block, and the way it spreads over the phase,
   is the same for every seed. The first block of the first phase
   carries every key's cold build. *)
let eps_choices_daemon = [| 0.1; 0.2; 0.25; 0.3 |]

let phase_queries rng ~ns ~blocks =
  let keys =
    Array.concat
      (List.concat_map
         (fun game ->
           List.map (fun n -> Array.map (fun beta -> (game, n, beta)) betas) (Array.to_list ns))
         (Array.to_list games))
  in
  let cheap_keys = Array.of_list (List.filter cheap (Array.to_list keys)) in
  let nk = Array.length keys and nc = Array.length cheap_keys in
  let eps_off = Rand.int rng 4 and key_off = Rand.int rng nk and cheap_off = Rand.int rng nc in
  let block b =
    let mixing =
      Array.mapi
        (fun k (game, n, beta) ->
          P.Mixing
            { game; n; beta; eps = eps_choices_daemon.((b + k + eps_off) mod 4); replicas = 0;
              seed = Rand.int rng 1000 })
        keys
    in
    let other i =
      let game, n, beta = keys.((key_off + (b * 8) + i) mod nk) in
      let cg, cn, cb = cheap_keys.((cheap_off + (b * 4) + i) mod nc) in
      match i / 2 with
      | 0 -> P.Stationary { game; n; beta }
      | 1 -> P.Simulate { game; n; beta; steps = 200; seed = Rand.int rng 1000 }
      | 2 -> P.Sample { game = cg; n = cn; beta = cb; count = 20; seed = Rand.int rng 1000 }
      | _ -> P.Hitting { game = cg; n = cn; beta = cb }
    in
    Rand.shuffle rng (Array.append mixing (Array.init 8 other))
  in
  Array.concat (List.init blocks block)

let daemon_phases profile ~seed =
  let rng = Rand.create (seed lxor 0x5eed) in
  (* Blocks of 24 + 8 = 32 requests, 224 per phase, at least 200 so
     that p95 has 10 samples beyond it. Every phase sends the same list:
     the daemon keeps no replies, so each phase does the same work, and
     the in-process check has one list to replay. The closed-loop phase
     pays every key's cold build, one request at a time; the open-loop
     phases then run warm. The daemon workload reruns the closed-loop
     phase, warm, for the measured passes. *)
  let ns, blocks, arrivals =
    match profile with
    | Full -> ([| 5; 6 |], 7, [ Closed; Open 24.; Open 48.; Open 96. ])
    | Smoke -> ([| 3; 4 |], 1, [ Closed; Open 50. ])
  in
  let queries = phase_queries rng ~ns ~blocks in
  List.map (fun arrival -> { arrival; queries }) arrivals

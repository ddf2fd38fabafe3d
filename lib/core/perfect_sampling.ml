open Games

let require_binary game =
  let space = Game.space game in
  for i = 0 to Strategy_space.num_players space - 1 do
    if Strategy_space.num_strategies space i <> 2 then
      invalid_arg "Perfect_sampling: binary strategies required"
  done

let dominates space x y =
  (* x <= y coordinate-wise *)
  let n = Strategy_space.num_players space in
  let ok = ref true in
  for i = 0 to n - 1 do
    if Strategy_space.player_strategy space x i > Strategy_space.player_strategy space y i
    then ok := false
  done;
  !ok

let is_attractive game ~beta =
  require_binary game;
  let space = Game.space game in
  let n = Strategy_space.num_players space in
  let size = Strategy_space.size space in
  let sigma1 =
    Array.init size (fun idx ->
        Array.init n (fun i ->
            (Logit_dynamics.update_distribution game ~beta ~player:i idx).(1)))
  in
  let ok = ref true in
  for x = 0 to size - 1 do
    for y = 0 to size - 1 do
      if !ok && x <> y && dominates space x y then
        for i = 0 to n - 1 do
          if sigma1.(x).(i) > sigma1.(y).(i) +. 1e-12 then ok := false
        done
    done
  done;
  !ok

(* One threshold update with shared randomness (player, u): both
   extreme chains use the same pair, preserving the partial order for
   attractive games. *)
let apply_move game ~beta (player, u) state =
  let space = Game.space game in
  let sigma = Logit_dynamics.update_distribution game ~beta ~player state in
  Strategy_space.replace space state player (if u <= sigma.(0) then 0 else 1)

(* The move buffer holds 2^max_epochs boxed moves, so the default
   bounds memory as well as time: 2^20 moves is tens of MB and under a
   second of sweeps, where 2^40 exhausts memory first. Large-β chains
   (t_mix = e^{βζ(1±o(1))}) reach the bound; every experiment coalesces
   within 2^12. *)
let run_cftp ?(max_epochs = 20) rng game ~beta =
  require_binary game;
  let space = Game.space game in
  let top_start =
    Strategy_space.encode space (Array.make (Strategy_space.num_players space) 1)
  in
  (* moves.(k) drives the step at time -(k+1); older moves are appended
     as the window doubles and MUST stay fixed across epochs. *)
  let moves = ref [||] in
  let ensure upto =
    let have = Array.length !moves in
    if upto > have then begin
      let fresh =
        Array.init (upto - have) (fun _ ->
            ( Prob.Rng.int rng (Strategy_space.num_players space),
              Prob.Rng.float rng ))
      in
      moves := Array.append !moves fresh
    end
  in
  let rec attempt epoch =
    if epoch > max_epochs then
      Common.no_convergence
        "Perfect_sampling: no coalescence within %d doubling epochs" max_epochs;
    let window = 1 lsl epoch in
    ensure window;
    let top = ref top_start and bottom = ref 0 in
    for k = window - 1 downto 0 do
      let move = !moves.(k) in
      top := apply_move game ~beta move !top;
      bottom := apply_move game ~beta move !bottom
    done;
    if !top = !bottom then (!top, window) else attempt (epoch + 1)
  in
  attempt 0

let coalescence_epoch ?max_epochs rng game ~beta =
  run_cftp ?max_epochs rng game ~beta

let sample ?max_epochs rng game ~beta = fst (run_cftp ?max_epochs rng game ~beta)

let samples ?max_epochs ?pool rng game ~beta ~count =
  if count < 1 then invalid_arg "Perfect_sampling.samples: need count >= 1";
  (* One split stream per sample: sample k is a function of the seed
     and k only, so the array is reproducible for any pool size. *)
  let streams = Prob.Rng.split_n rng count in
  (* Cutover cost of one draw: a whole CFTP run — doubling backward
     windows of full-lattice logit sweeps — is macro-task weight. *)
  Exec.Pool.init_opt ~cost:8192 pool ~n:count (fun k ->
      sample ?max_epochs streams.(k) game ~beta)

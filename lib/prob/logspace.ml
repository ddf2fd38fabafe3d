let logsumexp xs =
  let m = Array.fold_left Float.max neg_infinity xs in
  if m = neg_infinity then neg_infinity
  else if m = infinity then infinity
  else begin
    let acc = ref 0. in
    Array.iter (fun x -> acc := !acc +. exp (x -. m)) xs;
    m +. log !acc
  end

let logsumexp2 a b =
  let m = Float.max a b in
  if m = neg_infinity then neg_infinity
  else if m = infinity then infinity
  else m +. log (exp (a -. m) +. exp (b -. m))

(* The max-shifted softmax [exp ((x - m) - log acc)]: mass one up to
   rounding in the weights however large [|m|] is. At [m = +inf] it is
   the β → ∞ best-response limit, uniform over the [+inf] entries. *)
let normalize_shifted xs =
  let m = Array.fold_left Float.max neg_infinity xs in
  if m = infinity then begin
    let top = Array.fold_left (fun k x -> if x = infinity then k + 1 else k) 0 xs in
    let p = 1. /. float_of_int top in
    Array.map (fun x -> if x = infinity then p else 0.) xs
  end
  else begin
    let acc = Array.fold_left (fun acc x -> acc +. exp (x -. m)) 0. xs in
    let log_acc = log acc in
    Array.map (fun x -> exp ((x -. m) -. log_acc)) xs
  end

let normalize_logs xs =
  let z = logsumexp xs in
  if z = neg_infinity then invalid_arg "Logspace.normalize_logs: zero total mass";
  let w = Array.map (fun x -> exp (x -. z)) xs in
  (* [z = m + log acc] drops [log acc] once [|m|] dwarfs it (huge β
     with tied utilities), and [m = +inf] makes [z] useless. Only then
     does the mass leave 1, so only then switch to the shifted form:
     every other output stays bit-for-bit what [exp (x - z)] gives. *)
  let mass = Array.fold_left ( +. ) 0. w in
  if Float.abs (mass -. 1.) <= 1e-12 then w else normalize_shifted xs

let log1mexp x =
  if x >= 0. then invalid_arg "Logspace.log1mexp: argument must be negative";
  if x > -.Float.log 2. then log (-.Float.expm1 x) else Float.log1p (-.exp x)

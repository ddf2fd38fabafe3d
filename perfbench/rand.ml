(* SplitMix64. The benchmark draws its inputs from its own generator,
   not Prob.Rng, so a change to the program's generator cannot change
   the inputs two commits are compared on. *)

type t = { mutable s : int64 }

let create seed = { s = Int64.of_int seed }

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  let z = t.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rand.int: bound <= 0";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

let pick t a = a.(int t (Array.length a))

let shuffle t a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

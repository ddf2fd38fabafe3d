let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let min_beyond = 10

let percentile ~p xs =
  if not (p > 0. && p < 100.) then invalid_arg "Summary.percentile: p outside (0, 100)";
  let a = sorted xs in
  let n = Array.length a in
  let rank = Int.max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  if n - rank >= min_beyond then Some a.(rank - 1) else None

let max xs = List.fold_left Float.max Float.neg_infinity xs

(* Order statistics over latency samples and over repeated runs. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let require_samples name a =
  if Array.length a = 0 then invalid_arg (name ^ ": no samples")

(* Nearest rank: the smallest sample with at least [p] percent of all
   samples at or below it. With 1000 samples, p99 is the 990th smallest,
   which leaves ten samples beyond it. *)
let percentile a p =
  require_samples "Stats.percentile" a;
  let s = sorted a in
  let n = Array.length s in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* The middle sample, or the mean of the two middle samples. *)
let median a =
  require_samples "Stats.median" a;
  let s = sorted a in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let sum a = Array.fold_left ( +. ) 0. a

let mean a =
  require_samples "Stats.mean" a;
  sum a /. float_of_int (Array.length a)

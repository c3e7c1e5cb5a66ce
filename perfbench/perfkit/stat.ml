(* Order statistics for latency samples. *)

(* Nearest-rank percentile: the smallest sample such that at least [p]
   percent of the samples are <= it.  The rank is 1-based. *)
let rank ~p n =
  if n <= 0 then invalid_arg "Stat.rank: no samples";
  if not (p > 0.0 && p <= 100.0) then
    invalid_arg "Stat.rank: p outside (0, 100]";
  (* the epsilon keeps 99% of 1000 at rank 990, not 991 *)
  let r = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let percentile ~p a =
  let s = sorted a in
  s.(rank ~p (Array.length s) - 1)

let median a = percentile ~p:50.0 a

(* Samples strictly above the [p] rank: how much data the tail
   percentile rests on. *)
let beyond ~p n = n - rank ~p n

(* The smallest sample count that leaves at least [k] samples beyond
   the [p] rank (1000 for p99 and k = 10). *)
let samples_needed ~p ~k =
  let rec go n = if beyond ~p n >= k then n else go (n + 1) in
  go 1

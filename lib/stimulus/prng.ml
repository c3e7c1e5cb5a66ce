(* SplitMix64: tiny, fast, high-quality 64-bit PRNG with a trivially
   seedable state.  Deterministic across runs and platforms, which the
   experiment harness relies on for reproducibility.

   The state lives in 8 bytes read and written with the int64 primitives,
   which ocamlopt keeps unboxed: a draw through {!float}, {!bool} or
   {!int} allocates nothing (a mutable [int64] field would box every new
   state).  The bytes never leave this module, so their endianness is
   irrelevant. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

let golden = 0x9E3779B97F4A7C15L

(* the output function of state [z] *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let z = Int64.add (get64 t 0) golden in
  set64 t 0 z;
  mix z

let next_int64 t = next t

(* uniform in [0, 1): 53 random bits times 2^-53, which is exact, so it
   equals the division by 2^53 bit for bit *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let float t = unit_float t

let bool t ~p =
  if p <= 0.0 then false else if p >= 1.0 then true else unit_float t < p

(* [step_bits] draws without a branch on the draws.  [unit_float t < p]
   is decided on the integer: the draw is x * 2^-53 for the 53-bit x, so
   for p in (0, 1) it is below p exactly when x is below ceil(p * 2^53)
   (scaling by 2^53 is exact), which is the sign bit of x - threshold.
   Where [bool] answers without a draw (p <= 0 or p >= 1), the draw is
   still computed but the state is not advanced: it moves by [golden]
   masked with the bit's "draws" flag. *)
let draws p = if p <= 0.0 || p >= 1.0 then 0 else -1
let threshold p = if p > 0.0 && p < 1.0 then int_of_float (Float.ceil (p *. 0x1p53)) else 0
let fixed p = if p >= 1.0 then -1 else 0

let step_bits t ~rise ~fall ~prev ~n =
  let r_draws = draws rise and r_threshold = threshold rise and r_fixed = fixed rise in
  let f_draws = draws fall and f_threshold = threshold fall and f_fixed = fixed fall in
  let acc = ref 0 and st = ref (get64 t 0) in
  for b = 0 to n - 1 do
    (* pb = -1 where the previous bit is 1: the [fall] rule, inverted *)
    let pb = -((prev lsr b) land 1) in
    let draws = (f_draws land pb) lor (r_draws land lnot pb) in
    let threshold = (f_threshold land pb) lor (r_threshold land lnot pb) in
    let fixed = (f_fixed land pb) lor (r_fixed land lnot pb) in
    let state = !st in
    let x = Int64.to_int (Int64.shift_right_logical (mix (Int64.add state golden)) 11) in
    let below = -(((x - threshold) lsr 62) land 1) in
    let value = (below land draws) lor (fixed land lnot draws) in
    st := Int64.add state (Int64.logand golden (Int64.of_int draws));
    acc := !acc lor (((value lxor pb) land 1) lsl b)
  done;
  set64 t 0 !st;
  !acc

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* rejection-free modulo is fine for our non-cryptographic use *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let split t =
  (* derive an independent stream *)
  create (Int64.to_int (next t))

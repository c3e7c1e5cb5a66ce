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

let[@inline] next t =
  let z = Int64.add (get64 t 0) golden in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = next t

(* uniform in [0, 1): 53 random bits times 2^-53, which is exact, so it
   equals the division by 2^53 bit for bit *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let float t = unit_float t

let bool t ~p =
  if p <= 0.0 then false else if p >= 1.0 then true else unit_float t < p

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* rejection-free modulo is fine for our non-cryptographic use *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let split t =
  (* derive an independent stream *)
  create (Int64.to_int (next t))

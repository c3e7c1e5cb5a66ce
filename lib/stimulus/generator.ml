(* Random input streams with prescribed per-bit signal probability [sp]
   (stationary probability of being 1) and transition probability [st]
   (probability of toggling between consecutive vectors).

   Each bit follows a two-state Markov chain with
     P(0 -> 1) = st / (2 (1 - sp))     P(1 -> 0) = st / (2 sp)
   whose stationary distribution is Bernoulli(sp) and whose stationary
   toggle rate is st.  The first vector is drawn from the stationary
   distribution, so the whole stream is stationary.  Feasibility requires
   st <= 2 * min(sp, 1 - sp); infeasible requests are clamped (and
   reported by [feasible_st]). *)

let feasible_st ~sp st = Float.min st (2.0 *. Float.min sp (1.0 -. sp))

(* Statistics validation, shared by the raising and the checked entry
   points.  Validation-kind Guard errors carry the offending values. *)
let check_stats ~sp ~st =
  let bad what =
    Error
      (Guard.Error.validation
         ~context:[ ("sp", string_of_float sp); ("st", string_of_float st) ]
         what)
  in
  if not (Float.is_finite sp && sp > 0.0 && sp < 1.0) then
    bad "sp must be strictly between 0 and 1"
  else if not (Float.is_finite st && st >= 0.0 && st <= 1.0) then
    bad "st must be in [0, 1]"
  else Ok ()

let check_shape ~bits ~length =
  let bad what =
    Error
      (Guard.Error.validation
         ~context:
           [ ("bits", string_of_int bits); ("length", string_of_int length) ]
         what)
  in
  if length < 1 then bad "length must be >= 1"
  else if bits < 1 then bad "bits must be >= 1"
  else Ok ()

let rates_checked ~sp ~st =
  match check_stats ~sp ~st with
  | Error _ as e -> e
  | Ok () ->
    let st = feasible_st ~sp st in
    let p01 = st /. (2.0 *. (1.0 -. sp)) in
    let p10 = st /. (2.0 *. sp) in
    Ok (Float.min 1.0 p01, Float.min 1.0 p10)

let rates ~sp ~st =
  match rates_checked ~sp ~st with
  | Ok r -> r
  | Error err -> invalid_arg ("Generator.rates: " ^ err.Guard.Error.what)

(* The chain itself: one draw per bit, bits in ascending order, written
   straight into a packed block.  [draw] appends one vector whose bit i
   rises with probability [rise] from a 0 in [prev] and falls with
   probability [fall] from a 1 (words of [prev] beyond its length read
   as 0). *)
let draw prng ~rise ~fall ~prev block =
  let k = Block.push_zero block in
  let words = Block.words block and base = k * Block.stride block in
  let width = Block.width block in
  for w = 0 to Block.stride block - 1 do
    let bit0 = w * Block.bits_per_word in
    words.(base + w) <-
      Prng.step_bits prng ~rise ~fall
        ~prev:(if w < Array.length prev then prev.(w) else 0)
        ~n:(Int.min Block.bits_per_word (width - bit0))
  done

let draw_first prng ~sp block = draw prng ~rise:sp ~fall:0.0 ~prev:[||] block
let draw_step prng ~p01 ~p10 ~prev block = draw prng ~rise:p01 ~fall:p10 ~prev block

let sequence_checked prng ~bits ~length ~sp ~st =
  match check_shape ~bits ~length with
  | Error _ as e -> e
  | Ok () -> (
    match rates_checked ~sp ~st with
    | Error _ as e -> e
    | Ok (p01, p10) ->
      let block = Block.create ~width:bits ~capacity:length in
      let prev = Array.make (Block.stride block) 0 in
      draw_first prng ~sp block;
      for k = 1 to length - 1 do
        Block.store block (k - 1) prev;
        draw_step prng ~p01 ~p10 ~prev block
      done;
      Ok (Array.init length (Block.to_bools block)))

let sequence prng ~bits ~length ~sp ~st =
  match sequence_checked prng ~bits ~length ~sp ~st with
  | Ok vectors -> vectors
  | Error err -> invalid_arg ("Generator.sequence: " ^ err.Guard.Error.what)

let uniform_pair prng ~bits =
  let v () = Array.init bits (fun _ -> Prng.bool prng ~p:0.5) in
  (v (), v ())

type measured = { measured_sp : float; measured_st : float }

let measure vectors =
  let length = Array.length vectors in
  if length < 2 then invalid_arg "Generator.measure: need at least 2 vectors";
  let bits = Array.length vectors.(0) in
  let ones = ref 0 and toggles = ref 0 in
  Array.iter
    (fun v -> Array.iter (fun b -> if b then incr ones) v)
    vectors;
  for k = 1 to length - 1 do
    for i = 0 to bits - 1 do
      if vectors.(k).(i) <> vectors.(k - 1).(i) then incr toggles
    done
  done;
  {
    measured_sp = float_of_int !ones /. float_of_int (length * bits);
    measured_st = float_of_int !toggles /. float_of_int ((length - 1) * bits);
  }

(* PRNG determinism and the (sp, st)-controlled stream generator. *)

let prng_deterministic () =
  let a = Stimulus.Prng.create 42 and b = Stimulus.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stimulus.Prng.next_int64 a)
      (Stimulus.Prng.next_int64 b)
  done

let prng_seed_sensitivity () =
  let a = Stimulus.Prng.create 1 and b = Stimulus.Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Stimulus.Prng.next_int64 a = Stimulus.Prng.next_int64 b)

(* SplitMix64's published first outputs for seed 0 *)
let prng_reference_outputs () =
  let a = Stimulus.Prng.create 0 in
  List.iter
    (fun expected ->
      Alcotest.(check int64) "splitmix64 seed 0" expected
        (Stimulus.Prng.next_int64 a))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]

let prng_draws_do_not_allocate () =
  let a = Stimulus.Prng.create 9 in
  let hits = ref 0 in
  (* warm up: fault any lazy initialization out of the measured window *)
  ignore (Stimulus.Prng.bool a ~p:0.3);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if Stimulus.Prng.bool a ~p:0.3 then incr hits;
    hits := !hits + Stimulus.Prng.int a ~bound:3
  done;
  let delta = Gc.minor_words () -. before in
  (* Gc.minor_words itself returns a boxed float *)
  if delta > 8.0 then
    Alcotest.failf "10000 Prng.bool + Prng.int draws allocated %.0f minor words"
      delta;
  Alcotest.(check bool) "draws happened" true (!hits > 0)

let prng_float_range =
  Util.qtest ~count:1000 "float in [0,1)" QCheck.unit
    (let prng = Stimulus.Prng.create 7 in
     fun () ->
       let f = Stimulus.Prng.float prng in
       f >= 0.0 && f < 1.0)

let prng_int_bounds () =
  let prng = Stimulus.Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Stimulus.Prng.int prng ~bound:7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v
  done;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Stimulus.Prng.int prng ~bound:0))

let prng_copy_and_split () =
  let a = Stimulus.Prng.create 5 in
  let b = Stimulus.Prng.copy a in
  Alcotest.(check int64) "copy replays" (Stimulus.Prng.next_int64 a)
    (Stimulus.Prng.next_int64 b);
  let c = Stimulus.Prng.split a in
  Alcotest.(check bool) "split differs" false
    (Stimulus.Prng.next_int64 a = Stimulus.Prng.next_int64 c)

let feasibility () =
  Util.check_close "sp 0.5 allows any st" 0.9
    (Stimulus.Generator.feasible_st ~sp:0.5 0.9);
  Util.check_close "sp 0.1 clamps" 0.2
    (Stimulus.Generator.feasible_st ~sp:0.1 0.9)

let rates_match_theory () =
  let p01, p10 = Stimulus.Generator.rates ~sp:0.5 ~st:0.3 in
  Util.check_close "sp 0.5: symmetric" 0.3 p01;
  Util.check_close "sp 0.5: symmetric" 0.3 p10;
  let p01, p10 = Stimulus.Generator.rates ~sp:0.25 ~st:0.2 in
  (* p01 = st / (2 (1 - sp)), p10 = st / (2 sp) *)
  Util.check_close "p01" (0.2 /. 1.5) p01;
  Util.check_close "p10" (0.2 /. 0.5) p10

let rates_guard () =
  Alcotest.check_raises "sp = 0"
    (Invalid_argument "Generator.rates: sp must be strictly between 0 and 1")
    (fun () -> ignore (Stimulus.Generator.rates ~sp:0.0 ~st:0.5))

let statistics_converge () =
  let prng = Stimulus.Prng.create 11 in
  List.iter
    (fun (sp, st) ->
      let v =
        Stimulus.Generator.sequence prng ~bits:24 ~length:6000 ~sp ~st
      in
      let m = Stimulus.Generator.measure v in
      if Float.abs (m.Stimulus.Generator.measured_sp -. sp) > 0.03 then
        Alcotest.failf "sp drift at (%.2f, %.2f): got %.3f" sp st
          m.Stimulus.Generator.measured_sp;
      if Float.abs (m.Stimulus.Generator.measured_st -. st) > 0.03 then
        Alcotest.failf "st drift at (%.2f, %.2f): got %.3f" sp st
          m.Stimulus.Generator.measured_st)
    [ (0.5, 0.5); (0.5, 0.1); (0.5, 0.9); (0.2, 0.2); (0.8, 0.3); (0.3, 0.4) ]

let sequence_shapes () =
  let prng = Stimulus.Prng.create 3 in
  let v = Stimulus.Generator.sequence prng ~bits:4 ~length:10 ~sp:0.5 ~st:0.5 in
  Alcotest.(check int) "length" 10 (Array.length v);
  Array.iter (fun vec -> Alcotest.(check int) "bits" 4 (Array.length vec)) v;
  Alcotest.check_raises "empty" (Invalid_argument "Generator.sequence: length must be >= 1")
    (fun () ->
      ignore (Stimulus.Generator.sequence prng ~bits:4 ~length:0 ~sp:0.5 ~st:0.5))

let uniform_pair_shape () =
  let prng = Stimulus.Prng.create 4 in
  let a, b = Stimulus.Generator.uniform_pair prng ~bits:8 in
  Alcotest.(check int) "a bits" 8 (Array.length a);
  Alcotest.(check int) "b bits" 8 (Array.length b)

(* One Markov chain, two callers: the bits of a fixed sequence are
   pinned (a change of draw order changes them even where the
   statistics would not notice), and a one-phase stream generator
   source yields the very same vectors. *)
let one_markov_chain () =
  let show v =
    String.concat " "
      (Array.to_list
         (Array.map
            (fun x -> String.init (Array.length x) (fun i -> if x.(i) then '1' else '0'))
            v))
  in
  let v =
    Stimulus.Generator.sequence (Stimulus.Prng.create 42) ~bits:8 ~length:16
      ~sp:0.3 ~st:0.2
  in
  Alcotest.(check string) "pinned bits"
    "01101010 01001010 11101110 00101110 00100011 00000000 00000010 00010011 \
     00000011 00001001 10001001 10000000 10000000 11000010 01000010 01010100"
    (show v);
  match
    Stream.Source.generator ~seed:42 ~bits:8
      [ { Stream.Source.sp = 0.3; st = 0.2; count = 16 } ]
  with
  | Error e -> Alcotest.fail (Guard.Error.to_string e)
  | Ok source ->
    let streamed =
      Array.init 16 (fun _ ->
          match Stream.Source.next source with
          | Some (Stream.Source.Vector x) -> x
          | _ -> Alcotest.fail "source ended early")
    in
    Alcotest.(check string) "stream source draws the same chain" (show v)
      (show streamed);
    Alcotest.(check bool) "and then ends" true (Stream.Source.next source = None)

(* [step_bits] is [n] calls of [bool], draw for draw: the same bits and
   the same generator state after, including the probabilities [bool]
   answers without a draw and thresholds at the edges of the 53-bit
   grid. *)
let step_bits_equals_bools =
  let p_gen =
    QCheck.Gen.(
      oneof
        [
          float_bound_inclusive 1.0;
          oneofl [ 0.0; 1.0; -0.5; 1.5; 1e-300; 0x1p-53; 1.0 -. 0x1p-53; 0.5; nan ];
        ])
  in
  Util.qtest ~count:500 "step_bits draws what bool draws"
    (QCheck.make
       ~print:(fun (rise, fall, prev, n, seed) ->
         Printf.sprintf "rise %h fall %h prev %x n %d seed %d" rise fall prev n seed)
       QCheck.Gen.(
         let* rise = p_gen and* fall = p_gen in
         let* prev = int_bound max_int and* n = int_range 0 63 in
         let* seed = int_bound 100_000 in
         return (rise, fall, prev, n, seed)))
    (fun (rise, fall, prev, n, seed) ->
      let a = Stimulus.Prng.create seed and b = Stimulus.Prng.create seed in
      let got = Stimulus.Prng.step_bits a ~rise ~fall ~prev ~n in
      let expected = ref 0 in
      for i = 0 to n - 1 do
        let bit =
          if (prev lsr i) land 1 = 1 then not (Stimulus.Prng.bool b ~p:fall)
          else Stimulus.Prng.bool b ~p:rise
        in
        if bit then expected := !expected lor (1 lsl i)
      done;
      got = !expected && Stimulus.Prng.next_int64 a = Stimulus.Prng.next_int64 b)

let suite =
  [
    step_bits_equals_bools;
    Alcotest.test_case "prng determinism" `Quick prng_deterministic;
    Alcotest.test_case "prng seed sensitivity" `Quick prng_seed_sensitivity;
    Alcotest.test_case "prng int bounds" `Quick prng_int_bounds;
    Alcotest.test_case "prng copy and split" `Quick prng_copy_and_split;
    Alcotest.test_case "prng matches splitmix64" `Quick prng_reference_outputs;
    Alcotest.test_case "prng draws allocate nothing" `Quick
      prng_draws_do_not_allocate;
    Alcotest.test_case "st feasibility" `Quick feasibility;
    Alcotest.test_case "markov rates" `Quick rates_match_theory;
    Alcotest.test_case "rates guard" `Quick rates_guard;
    Alcotest.test_case "empirical sp/st converge" `Slow statistics_converge;
    Alcotest.test_case "sequence shapes" `Quick sequence_shapes;
    Alcotest.test_case "uniform pair" `Quick uniform_pair_shape;
    Alcotest.test_case "one Markov chain for sequences and streams" `Quick
      one_markov_chain;
    prng_float_range;
  ]

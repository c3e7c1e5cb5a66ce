(* Zero-delay simulator: the paper's running example (Fig. 2) with its
   exact capacitances, plus sequence accounting and worst-case search. *)

(* Fig. 2 unit: g1 = x1', g2 = x2', g3 = x1 + x2; C1=40, C2=50, C3=10 fF. *)
let fig2 () =
  let b = Netlist.Builder.create ~name:"fig2" in
  let x1 = Netlist.Builder.input b "x1" in
  let x2 = Netlist.Builder.input b "x2" in
  let g1 = Netlist.Builder.not_ b x1 in
  let g2 = Netlist.Builder.not_ b x2 in
  let g3 = Netlist.Builder.or2 b x1 x2 in
  Netlist.Builder.output b "g1" g1;
  Netlist.Builder.output b "g2" g2;
  Netlist.Builder.output b "g3" g3;
  let c = Netlist.Builder.finish b in
  let loads = Array.make c.Netlist.Circuit.net_count 0.0 in
  loads.(g1) <- 40.0;
  loads.(g2) <- 50.0;
  loads.(g3) <- 10.0;
  (c, loads)

let vec b1 b0 = [| b0; b1 |] (* x1 is input 0 *)

let paper_example () =
  let c, loads = fig2 () in
  let sim = Gatesim.Simulator.create ~loads c in
  let check (x1i, x2i) (x1f, x2f) expected =
    let got =
      Gatesim.Simulator.switched_capacitance sim (vec x2i x1i) (vec x2f x1f)
    in
    Util.check_close
      (Printf.sprintf "C(%b%b -> %b%b)" x1i x2i x1f x2f)
      expected got
  in
  (* Ex. 1 of the paper: C(11, 00) = C1 + C2 = 90 fF *)
  check (true, true) (false, false) 90.0;
  check (false, false) (false, false) 0.0;
  (* 00 -> 01: g3 rises (10), g2 falls, g1 stays 1 *)
  check (false, false) (false, true) 10.0;
  (* 00 -> 11: g3 rises, both inverters fall *)
  check (false, false) (true, true) 10.0;
  (* 10 -> 01: g1 rises (40); g2 falls; g3 stays 1 *)
  check (true, false) (false, true) 40.0

let energy_is_vdd2_c () =
  let c, loads = fig2 () in
  let sim = Gatesim.Simulator.create ~loads c in
  let e =
    Gatesim.Simulator.energy ~vdd:2.0 sim (vec true true) (vec false false)
  in
  Util.check_close "E = Vdd^2 C" (4.0 *. 90.0) e

let run_accounting () =
  let c, loads = fig2 () in
  let sim = Gatesim.Simulator.create ~loads c in
  let vectors = [| vec true true; vec false false; vec false true |] in
  let run = Gatesim.Simulator.run sim vectors in
  Alcotest.(check int) "patterns" 2 run.Gatesim.Simulator.patterns;
  (* 11 -> 00: 90; 00 -> 10 (x2 rises): g3 rises 10, g2 falls *)
  Util.check_close "total" 100.0 run.Gatesim.Simulator.total;
  Util.check_close "average" 50.0 run.Gatesim.Simulator.average;
  Util.check_close "maximum" 90.0 run.Gatesim.Simulator.maximum;
  Util.check_close "per pattern 0" 90.0 run.Gatesim.Simulator.per_pattern.(0)

let average_power () =
  let c, loads = fig2 () in
  let sim = Gatesim.Simulator.create ~loads c in
  let run =
    Gatesim.Simulator.run sim [| vec true true; vec false false |]
  in
  (* 90 fF * (3.3)^2 / 1e-9 s *)
  Util.check_close "power"
    (90.0 *. 3.3 *. 3.3 /. 1e-9)
    (Gatesim.Simulator.average_power ~period:1e-9 run)

let worst_case_exhaustive () =
  let c, loads = fig2 () in
  let sim = Gatesim.Simulator.create ~loads c in
  (* worst transition is 11 -> 00: 90 fF *)
  Util.check_close "exact worst case" 90.0
    (Gatesim.Simulator.worst_case_capacitance_exhaustive sim)

let worst_case_guard () =
  let c = Circuits.Comparator.comp () in
  let sim = Gatesim.Simulator.create c in
  Alcotest.check_raises "too many inputs"
    (Invalid_argument
       "Simulator.worst_case_capacitance_exhaustive: too many inputs")
    (fun () -> ignore (Gatesim.Simulator.worst_case_capacitance_exhaustive sim))

let inputs_not_counted () =
  (* primary-input nets carry load but are driven externally: a transition
     that only flips inputs whose gates do not rise must cost 0 *)
  let b = Netlist.Builder.create ~name:"buf" in
  let x = Netlist.Builder.input b "x" in
  Netlist.Builder.output b "y" (Netlist.Builder.buf b x) ;
  let c = Netlist.Builder.finish b in
  let sim = Gatesim.Simulator.create c in
  (* x falls: buffer output falls, nothing rises *)
  Util.check_close "falling costs nothing" 0.0
    (Gatesim.Simulator.switched_capacitance sim [| true |] [| false |]);
  Alcotest.(check bool) "rising costs the buffer load" true
    (Gatesim.Simulator.switched_capacitance sim [| false |] [| true |] > 0.0)

let run_needs_two () =
  let c, loads = fig2 () in
  let sim = Gatesim.Simulator.create ~loads c in
  Alcotest.check_raises "one vector"
    (Invalid_argument "Simulator.run: need at least two vectors") (fun () ->
      ignore (Gatesim.Simulator.run sim [| vec true true |]))

(* ---- the word-parallel kernel against the boolean reference ---- *)

(* Every cell kind at least once, Const both ways, arities 2-4, Mux;
   gates read a mix of inputs and earlier gate outputs. *)
let every_kind () =
  let b = Netlist.Builder.create ~name:"kinds" in
  let x = Netlist.Builder.inputs b "x" 5 in
  let nets = ref (Array.to_list x) in
  let pick k = List.nth !nets (k mod List.length !nets) in
  List.iteri
    (fun j kind ->
      let out =
        match kind with
        | Netlist.Cell.Const v -> Netlist.Builder.const b v
        | kind ->
          Netlist.Builder.gate b kind
            (Array.init (Netlist.Cell.arity kind) (fun i -> pick ((3 * j) + i)))
      in
      nets := !nets @ [ out ];
      Netlist.Builder.output b (Printf.sprintf "g%d" j) out)
    Netlist.Cell.all_kinds;
  Netlist.Builder.finish b

let batch_lengths = [ 0; 1; 61; 62; 63; 64; 127; 200 ]

let bits_of a = Array.map Int64.bits_of_float a

(* The batch, every [run] field and the single-pair entry point must
   carry the same float bits as the scalar fold over [eval]. *)
let check_sim what sim prng =
  let n = Netlist.Circuit.input_count (Gatesim.Simulator.circuit sim) in
  let vec () = Array.init n (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
  let scalar x_i x_f =
    Gatesim.Simulator.switched_capacitance_of_values sim
      (Gatesim.Simulator.eval sim x_i)
      (Gatesim.Simulator.eval sim x_f)
  in
  List.iter
    (fun len ->
      let pairs = Array.init len (fun _ -> (vec (), vec ())) in
      let expected = Array.map (fun (a, b) -> scalar a b) pairs in
      let got = Gatesim.Simulator.switched_capacitance_batch sim pairs in
      if bits_of got <> bits_of expected then
        QCheck.Test.fail_reportf "%s: batch of %d differs from eval" what len;
      Array.iteri
        (fun k (a, b) ->
          if
            Int64.bits_of_float (Gatesim.Simulator.switched_capacitance sim a b)
            <> Int64.bits_of_float expected.(k)
          then QCheck.Test.fail_reportf "%s: single pair %d differs" what k)
        pairs;
      if len >= 1 then begin
        let vectors = Array.init (len + 1) (fun _ -> vec ()) in
        let per =
          Array.init len (fun k -> scalar vectors.(k) vectors.(k + 1))
        in
        let total = Array.fold_left ( +. ) 0.0 per in
        let maximum = Array.fold_left Float.max 0.0 per in
        let r = Gatesim.Simulator.run sim vectors in
        if
          bits_of r.Gatesim.Simulator.per_pattern <> bits_of per
          || Int64.bits_of_float r.total <> Int64.bits_of_float total
          || Int64.bits_of_float r.maximum <> Int64.bits_of_float maximum
          || r.patterns <> len
        then QCheck.Test.fail_reportf "%s: run over %d vectors differs" what (len + 1)
      end)
    batch_lengths;
  true

(* The library's loads are multiples of 0.5 fF, whose sums are exact in
   any order; the second simulator's loads are not, so it also pins the
   ascending-net summation order. *)
let check_kernel what circuit seed =
  let prng = Stimulus.Prng.create seed in
  let odd_loads =
    Array.init circuit.Netlist.Circuit.net_count (fun _ ->
        0.1 +. (37.3 *. Stimulus.Prng.float prng))
  in
  List.for_all
    (fun sim -> check_sim what sim prng)
    [ Gatesim.Simulator.create circuit; Gatesim.Simulator.create ~loads:odd_loads circuit ]

let kernel_every_kind () =
  ignore (check_kernel "every kind" (every_kind ()) 11)

let qcheck_kernel =
  let gen =
    QCheck.Gen.(
      triple (int_range 2 14) (int_range 1 60) (int_range 0 100_000))
  in
  Util.qtest ~count:40 "bit-sliced kernel equals eval on random logic"
    (QCheck.make gen ~print:(fun (i, g, s) ->
         Printf.sprintf "%d inputs, %d gates, seed %d" i g s))
    (fun (inputs, gates, seed) ->
      let circuit =
        Circuits.Random_logic.generate
          {
            Circuits.Random_logic.name = Printf.sprintf "sim%d" seed;
            inputs;
            gates;
            seed;
            window = 12;
            support_cap = inputs;
            max_outputs = 4;
          }
      in
      check_kernel (Printf.sprintf "seed %d" seed) circuit seed)

let suite =
  [
    Alcotest.test_case "paper Fig. 2 table" `Quick paper_example;
    Alcotest.test_case "energy = Vdd^2 C" `Quick energy_is_vdd2_c;
    Alcotest.test_case "run accounting" `Quick run_accounting;
    Alcotest.test_case "average power" `Quick average_power;
    Alcotest.test_case "exhaustive worst case" `Quick worst_case_exhaustive;
    Alcotest.test_case "worst case guard" `Quick worst_case_guard;
    Alcotest.test_case "only rising edges charge" `Quick inputs_not_counted;
    Alcotest.test_case "run needs two vectors" `Quick run_needs_two;
    Alcotest.test_case "bit-sliced kernel covers every cell kind" `Quick
      kernel_every_kind;
    qcheck_kernel;
  ]

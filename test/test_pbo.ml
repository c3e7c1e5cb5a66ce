(* The PBO worst-case oracle: solver core on hand-built instances, then
   the netlist encoding validated against the exhaustive golden simulator
   and the exact ADD route. *)

let pos = Pbo.Solver.pos
let neg = Pbo.Solver.neg

let mk ?(objective = [||]) ?(decisions = [||]) ~nvars clauses =
  {
    Pbo.Solver.nvars;
    clauses;
    objective;
    decision_order = decisions;
    phase_hint = Array.make nvars false;
  }

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Guard.Error.to_string e)

let exact_float = Alcotest.float 0.0

(* --- solver core ------------------------------------------------------ *)

let tiny_maximization () =
  (* a and b exclusive; the optimum drops the lighter one *)
  let p =
    mk ~nvars:3
      [ [| neg 0; neg 1 |] ]
      ~objective:[| (0, 2.0); (1, 3.0); (2, 1.0) |]
  in
  let o = ok_exn (Pbo.Solver.solve p) in
  Alcotest.check exact_float "value" 4.0 o.Pbo.Solver.value;
  Alcotest.(check (array bool))
    "witness" [| false; true; true |] o.Pbo.Solver.witness;
  (match o.Pbo.Solver.proof with
  | Pbo.Solver.Optimal -> ()
  | Pbo.Solver.Bounded _ -> Alcotest.fail "expected an optimality proof");
  Alcotest.check exact_float "canonical fold" 4.0
    (Pbo.Solver.value_of p o.Pbo.Solver.witness);
  Alcotest.(check bool) "satisfies" true (Pbo.Solver.check p o.Pbo.Solver.witness)

let implication_chain () =
  (* x0 -> x1 -> x2, weight only on x2's negation side: maximize keeps
     all false except forced units *)
  let p =
    mk ~nvars:3
      [ [| neg 0; pos 1 |]; [| neg 1; pos 2 |]; [| pos 0 |] ]
      ~objective:[| (2, 5.0) |]
  in
  let o = ok_exn (Pbo.Solver.solve p) in
  Alcotest.check exact_float "forced chain" 5.0 o.Pbo.Solver.value;
  Alcotest.(check (array bool))
    "all true" [| true; true; true |] o.Pbo.Solver.witness

let unsat_is_validation_error () =
  List.iter
    (fun clauses ->
      match Pbo.Solver.solve (mk ~nvars:2 clauses) with
      | Ok _ -> Alcotest.fail "expected unsatisfiable"
      | Error e ->
        Alcotest.(check string)
          "kind" "validation"
          (Guard.Error.kind_name e.Guard.Error.kind))
    [ [ [| pos 0 |]; [| neg 0 |] ]; [ [||] ] ]

let tautologies_are_dropped () =
  let p =
    mk ~nvars:2
      [ [| pos 0; neg 0 |]; [| pos 1; pos 1; neg 0 |] ]
      ~objective:[| (0, 1.0); (1, 1.0) |]
  in
  let o = ok_exn (Pbo.Solver.solve p) in
  Alcotest.check exact_float "max" 2.0 o.Pbo.Solver.value

let hint_becomes_incumbent () =
  (* an inconsistent hint is ignored; a consistent one seeds the bound *)
  let p =
    mk ~nvars:2
      [ [| neg 0; neg 1 |] ]
      ~objective:[| (0, 1.0); (1, 2.0) |]
  in
  let bad = ok_exn (Pbo.Solver.solve ~hint:[| true; true |] p) in
  Alcotest.check exact_float "ignored bad hint" 2.0 bad.Pbo.Solver.value;
  let good = ok_exn (Pbo.Solver.solve ~hint:[| false; true |] p) in
  Alcotest.check exact_float "good hint" 2.0 good.Pbo.Solver.value

let deadline_before_any_incumbent () =
  (* enough variables that the first full assignment lies beyond the
     deadline-check interval; a zero deadline must surface as a typed
     Resource error, not an incumbent *)
  let nvars = 9000 in
  let p =
    {
      Pbo.Solver.nvars;
      clauses = [];
      objective = [| (0, 1.0) |];
      decision_order = Array.init nvars Fun.id;
      phase_hint = Array.make nvars false;
    }
  in
  let budget = Guard.Budget.create ~wall_seconds:0.0 () in
  match Pbo.Solver.solve ~budget p with
  | Ok _ -> Alcotest.fail "expected a deadline error"
  | Error e ->
    Alcotest.(check string)
      "kind" "resource"
      (Guard.Error.kind_name e.Guard.Error.kind)

(* --- netlist encoding ------------------------------------------------- *)

let pbo_matches_exhaustive_simulator () =
  List.iter
    (fun circuit ->
      let sim = Gatesim.Simulator.create circuit in
      let truth = Gatesim.Simulator.worst_case_capacitance_exhaustive sim in
      let r = ok_exn (Powermodel.Adversarial.worst_pbo circuit) in
      Alcotest.(check bool) "optimal" true r.Powermodel.Adversarial.optimal;
      Alcotest.check exact_float
        (circuit.Netlist.Circuit.name ^ " value")
        truth r.Powermodel.Adversarial.value;
      Alcotest.check exact_float
        (circuit.Netlist.Circuit.name ^ " witness resimulates")
        r.Powermodel.Adversarial.value
        (Gatesim.Simulator.switched_capacitance sim
           r.Powermodel.Adversarial.x_i r.Powermodel.Adversarial.x_f);
      Alcotest.check exact_float "upper = value when optimal"
        r.Powermodel.Adversarial.value r.Powermodel.Adversarial.upper)
    [
      Circuits.Decoder.decod ();
      Circuits.Adder.circuit ~bits:3;
      Util.small_random_circuit 41;
      Util.small_random_circuit 42;
      Util.small_random_circuit 43;
    ]

(* The Table 1 rows the solver proves optimal in well under a second. *)
let tractable = [ "decod"; "x2"; "alu2"; "cm85"; "cmb"; "cm150" ]

let suite_circuit name =
  match Circuits.Suite.find name with
  | Some e -> e.Circuits.Suite.build ()
  | None -> Alcotest.failf "no suite circuit %s" name

let cross_validation_agrees_on_exact_models () =
  List.iter
    (fun circuit ->
      let model = Powermodel.Model.build circuit in
      let a =
        ok_exn (Powermodel.Adversarial.cross_validate model circuit)
      in
      Alcotest.(check bool) "comparable" true a.Powermodel.Adversarial.comparable;
      Alcotest.(check bool) "agree" true a.Powermodel.Adversarial.agree;
      Alcotest.check exact_float "float-equal"
        a.Powermodel.Adversarial.add.Powermodel.Adversarial.value
        a.Powermodel.Adversarial.pbo.Powermodel.Adversarial.value)
    (List.map suite_circuit tractable @ [ Util.small_random_circuit 44 ])

let conflict_ceiling_gives_sound_interval () =
  let circuit = Circuits.Comparator.cm85 () in
  let full = ok_exn (Powermodel.Adversarial.worst_pbo circuit) in
  Alcotest.(check bool) "unbudgeted optimal" true
    full.Powermodel.Adversarial.optimal;
  let budget = Guard.Budget.create ~conflict_ceiling:1 () in
  let r = ok_exn (Powermodel.Adversarial.worst_pbo ~budget circuit) in
  Alcotest.(check bool) "bounded" false r.Powermodel.Adversarial.optimal;
  let truth = full.Powermodel.Adversarial.value in
  if r.Powermodel.Adversarial.value > truth then
    Alcotest.failf "bounded incumbent %.6g above the optimum %.6g"
      r.Powermodel.Adversarial.value truth;
  if r.Powermodel.Adversarial.upper < truth then
    Alcotest.failf "bounded upper %.6g below the optimum %.6g"
      r.Powermodel.Adversarial.upper truth;
  (match r.Powermodel.Adversarial.reason with
  | Some e ->
    Alcotest.(check string)
      "typed reason" "resource"
      (Guard.Error.kind_name e.Guard.Error.kind);
    Alcotest.(check (option string))
      "ceiling recorded" (Some "1")
      (Guard.Error.context_value e "conflict_ceiling")
  | None -> Alcotest.fail "bounded result must carry its budget reason");
  match r.Powermodel.Adversarial.stats with
  | Some s -> Alcotest.(check int) "stopped at the ceiling" 1 s.Pbo.Solver.conflicts
  | None -> Alcotest.fail "PBO result must carry stats"

let solver_is_deterministic () =
  let circuit = Circuits.Comparator.cm85 () in
  let solve () =
    let budget = Guard.Budget.create ~conflict_ceiling:100 () in
    ok_exn (Powermodel.Adversarial.worst_pbo ~budget circuit)
  in
  let a = solve () and b = solve () in
  Alcotest.check exact_float "value" a.Powermodel.Adversarial.value
    b.Powermodel.Adversarial.value;
  Alcotest.(check (array bool)) "x_i" a.Powermodel.Adversarial.x_i
    b.Powermodel.Adversarial.x_i;
  Alcotest.(check (array bool)) "x_f" a.Powermodel.Adversarial.x_f
    b.Powermodel.Adversarial.x_f;
  match (a.Powermodel.Adversarial.stats, b.Powermodel.Adversarial.stats) with
  | Some sa, Some sb ->
    Alcotest.(check int) "decisions" sa.Pbo.Solver.decisions sb.Pbo.Solver.decisions;
    Alcotest.(check int) "conflicts" sa.Pbo.Solver.conflicts sb.Pbo.Solver.conflicts;
    Alcotest.(check int) "restarts" sa.Pbo.Solver.restarts sb.Pbo.Solver.restarts
  | _ -> Alcotest.fail "missing stats"

let warm_hint_preserves_optimum () =
  let circuit = Circuits.Decoder.decod () in
  let n = Netlist.Circuit.input_count circuit in
  let base = ok_exn (Powermodel.Adversarial.worst_pbo circuit) in
  let hint = (Array.make n true, Array.make n false) in
  let hinted = ok_exn (Powermodel.Adversarial.worst_pbo ~hint circuit) in
  Alcotest.check exact_float "same optimum" base.Powermodel.Adversarial.value
    hinted.Powermodel.Adversarial.value;
  Alcotest.(check bool) "still optimal" true hinted.Powermodel.Adversarial.optimal

(* --- the pruned search against the reference -------------------------

   [Pbo_ref] is the solver before exclusion-clique pruning: it restarted
   from the root after every incumbent and bounded each node by all the
   undecided weights.  Pruning may only skip subtrees that cannot beat
   the incumbent, so every un-budgeted solve must return its value bits
   and witness. *)

let bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

(* Optimum value bits and witness transitions of the tractable rows,
   captured from [Pbo_ref] through [Adversarial.worst_pbo]. *)
let pinned =
  [
    ("decod", 0x406ac00000000000L, "11110", "00001");
    ("x2", 0x4074500000000000L, "0110100001", "0011011011");
    ("alu2", 0x406fc00000000000L, "0000000000", "1111111101");
    ("cm85", 0x4063400000000000L, "01010101010", "10000000001");
    ("cmb", 0x4060000000000000L, "0110110000110100", "1001001111001011");
    ("cm150", 0x406c400000000000L, "111100000000000000000",
     "000011111111111111111");
  ]

let pinned_optima_and_witnesses () =
  List.iter
    (fun (name, value_bits, x_i, x_f) ->
      let r = ok_exn (Powermodel.Adversarial.worst_pbo (suite_circuit name)) in
      Alcotest.(check bool) (name ^ " optimal") true r.Powermodel.Adversarial.optimal;
      Alcotest.(check int64) (name ^ " value bits") value_bits
        (Int64.bits_of_float r.Powermodel.Adversarial.value);
      Alcotest.(check string) (name ^ " x_i") x_i (bits r.Powermodel.Adversarial.x_i);
      Alcotest.(check string) (name ^ " x_f") x_f (bits r.Powermodel.Adversarial.x_f);
      (* the reference takes 56,690 decisions on cm85 *)
      match (name, r.Powermodel.Adversarial.stats) with
      | "cm85", Some st when st.Pbo.Solver.decisions > 25_000 ->
        Alcotest.failf "cm85 took %d decisions, over 25,000" st.Pbo.Solver.decisions
      | _ -> ())
    pinned

(* Past the probing cap the lighter objective vars stay singletons: one
   exclusion among the probed vars, one among the rest. *)
let objective_past_the_probing_cap () =
  let nvars = 9000 in
  let p =
    {
      Pbo.Solver.nvars;
      clauses = [ [| neg 0; neg 1 |]; [| neg (nvars - 2); neg (nvars - 1) |] ];
      objective = Array.init nvars (fun v -> (v, 1.0));
      decision_order = Array.init nvars Fun.id;
      phase_hint = Array.make nvars true;
    }
  in
  let o = ok_exn (Pbo.Solver.solve p) and r = ok_exn (Pbo_ref.solve p) in
  Alcotest.check exact_float "value" (Float.of_int (nvars - 2)) o.Pbo.Solver.value;
  Alcotest.(check (array bool)) "reference witness" r.Pbo.Solver.witness
    o.Pbo.Solver.witness

(* A random netlist of at most 8 inputs with random dyadic loads (zeros
   included) and a random hint: none, a consistent transition, or an
   arbitrary and usually inconsistent assignment. *)
type instance = {
  circuit : Netlist.Circuit.t;
  loads : float array;
  hint : bool array option;
}

let instance_gen =
  QCheck.Gen.(
    map
      (fun (seed, inputs, gates, salt) ->
        let circuit =
          Circuits.Random_logic.generate
            {
              Circuits.Random_logic.name = Printf.sprintf "pbo%d" seed;
              inputs;
              gates;
              seed;
              window = 12;
              support_cap = inputs;
              max_outputs = 4;
            }
        in
        let st = Random.State.make [| seed; salt |] in
        let loads =
          Array.init circuit.Netlist.Circuit.net_count (fun _ ->
              0.5 *. Float.of_int (Random.State.int st 40))
        in
        let enc = Pbo.Encode.encode ~loads circuit in
        let n = Netlist.Circuit.input_count circuit in
        let random_vec len = Array.init len (fun _ -> Random.State.bool st) in
        let hint =
          match Random.State.int st 3 with
          | 0 -> None
          | 1 ->
            Some
              (Pbo.Encode.assignment_of_transition enc (random_vec n)
                 (random_vec n))
          | _ -> Some (random_vec enc.Pbo.Encode.problem.Pbo.Solver.nvars)
        in
        { circuit; loads; hint })
      (quad (int_bound 100_000) (int_range 2 8) (int_range 3 40)
         (int_bound 1_000_000)))

let instance_arb =
  QCheck.make instance_gen ~print:(fun i ->
      Printf.sprintf "%s: %d inputs, %d gates, hint %s" i.circuit.Netlist.Circuit.name
        (Netlist.Circuit.input_count i.circuit)
        (Array.length i.circuit.Netlist.Circuit.gates)
        (match i.hint with None -> "none" | Some h -> bits h))

let problem_of i = (Pbo.Encode.encode ~loads:i.loads i.circuit).Pbo.Encode.problem

let same_as_reference =
  Util.qtest ~count:150 "un-budgeted solves equal the reference solver"
    instance_arb (fun i ->
      let p = problem_of i in
      match (Pbo.Solver.solve ?hint:i.hint p, Pbo_ref.solve ?hint:i.hint p) with
      | Ok a, Ok b ->
        let optimal o =
          match o.Pbo.Solver.proof with
          | Pbo.Solver.Optimal -> true
          | Pbo.Solver.Bounded _ -> false
        in
        if Int64.bits_of_float a.Pbo.Solver.value
           <> Int64.bits_of_float b.Pbo.Solver.value
        then
          QCheck.Test.fail_reportf "value %h, reference %h" a.Pbo.Solver.value
            b.Pbo.Solver.value;
        if a.Pbo.Solver.witness <> b.Pbo.Solver.witness then
          QCheck.Test.fail_reportf "witness %s, reference %s"
            (bits a.Pbo.Solver.witness) (bits b.Pbo.Solver.witness);
        optimal a && optimal b
      | _ -> QCheck.Test.fail_report "a satisfiable encoding failed to solve")

let budgeted_interval_holds_the_optimum =
  Util.qtest ~count:150 "budgeted intervals hold the exhaustive optimum"
    QCheck.(pair instance_arb (int_range 1 60))
    (fun (i, ceiling) ->
      let p = problem_of i in
      let truth =
        Gatesim.Simulator.worst_case_capacitance_exhaustive
          (Gatesim.Simulator.create ~loads:i.loads i.circuit)
      in
      let budget = Guard.Budget.create ~conflict_ceiling:ceiling () in
      match Pbo.Solver.solve ~budget ?hint:i.hint p with
      | Error e ->
        (* only possible before any incumbent: no hint installed one *)
        Guard.Error.kind_name e.Guard.Error.kind = "resource"
      | Ok o ->
        let upper =
          match o.Pbo.Solver.proof with
          | Pbo.Solver.Optimal -> o.Pbo.Solver.value
          | Pbo.Solver.Bounded { upper; _ } -> upper
        in
        if not (o.Pbo.Solver.value <= truth && truth <= upper) then
          QCheck.Test.fail_reportf "optimum %g outside [%g, %g]" truth
            o.Pbo.Solver.value upper;
        Pbo.Solver.check p o.Pbo.Solver.witness
        && Pbo.Solver.value_of p o.Pbo.Solver.witness = o.Pbo.Solver.value)

(* --- the satellite property: witnesses re-simulate, every method, every
   reorder policy ------------------------------------------------------- *)

let witnesses_resimulate_across_policies () =
  List.iter
    (fun circuit ->
      let sim = Gatesim.Simulator.create circuit in
      let pbo = ok_exn (Powermodel.Adversarial.worst_pbo circuit) in
      Alcotest.check exact_float "pbo witness resimulates"
        pbo.Powermodel.Adversarial.value
        (Gatesim.Simulator.switched_capacitance sim
           pbo.Powermodel.Adversarial.x_i pbo.Powermodel.Adversarial.x_f);
      List.iter
        (fun policy ->
          (* exact model: the ADD witness value is real, and equals the
             independently proven PBO optimum *)
          let exact = Powermodel.Model.build ~reorder:policy circuit in
          let x_i, x_f, v = Powermodel.Analysis.worst_case_transition exact in
          Alcotest.check exact_float
            (Printf.sprintf "add witness resimulates (%s)"
               (Powermodel.Reorder.to_string policy))
            v
            (Gatesim.Simulator.switched_capacitance sim x_i x_f);
          Alcotest.check exact_float
            (Printf.sprintf "add = pbo (%s)" (Powermodel.Reorder.to_string policy))
            v pbo.Powermodel.Adversarial.value;
          (* collapsed upper-bound model: the witness attains the bound in
             the model, and reality never exceeds it *)
          let ub =
            Powermodel.Model.build ~reorder:policy
              ~strategy:Dd.Approx.Upper_bound ~max_size:120 circuit
          in
          let bx_i, bx_f, bv = Powermodel.Analysis.worst_case_transition ub in
          let real = Gatesim.Simulator.switched_capacitance sim bx_i bx_f in
          if real > bv +. 1e-9 then
            Alcotest.failf "upper-bound witness: real %.6g above bound %.6g"
              real bv)
        Powermodel.Reorder.all)
    [ Circuits.Decoder.decod (); Util.small_random_circuit 45 ]

let suite =
  [
    Alcotest.test_case "tiny maximization" `Quick tiny_maximization;
    Alcotest.test_case "implication chain" `Quick implication_chain;
    Alcotest.test_case "unsat" `Quick unsat_is_validation_error;
    Alcotest.test_case "tautologies" `Quick tautologies_are_dropped;
    Alcotest.test_case "hint incumbent" `Quick hint_becomes_incumbent;
    Alcotest.test_case "deadline, no incumbent" `Quick
      deadline_before_any_incumbent;
    Alcotest.test_case "matches exhaustive simulator" `Slow
      pbo_matches_exhaustive_simulator;
    Alcotest.test_case "cross-validation" `Slow
      cross_validation_agrees_on_exact_models;
    Alcotest.test_case "conflict ceiling" `Quick
      conflict_ceiling_gives_sound_interval;
    Alcotest.test_case "deterministic" `Quick solver_is_deterministic;
    Alcotest.test_case "warm hint" `Quick warm_hint_preserves_optimum;
    Alcotest.test_case "witnesses resimulate" `Slow
      witnesses_resimulate_across_policies;
    Alcotest.test_case "pinned optima and witnesses" `Quick
      pinned_optima_and_witnesses;
    Alcotest.test_case "objective past the probing cap" `Quick
      objective_past_the_probing_cap;
    same_as_reference;
    budgeted_interval_holds_the_optimum;
  ]

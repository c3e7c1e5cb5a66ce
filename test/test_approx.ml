(* Node collapsing: size bounds, conservativeness of the bound strategies,
   behaviour across weightings. *)

let bdd_mgr = Dd.Bdd.manager ()
let mgr = Dd.Add.manager ()

let vars = 6 (* 3 interleaved input pairs *)

let spec_gen =
  let open QCheck.Gen in
  let value = map (fun k -> float_of_int k *. 2.5) (int_bound 20) in
  sized_size (return 4) @@ fix (fun self fuel ->
      if fuel = 0 then map (fun v -> `Const v) value
      else
        map3
          (fun g a b -> `Ite (g, a, b))
          (Util.expr_gen ~vars) (self (fuel - 1)) (self (fuel - 1)))

let rec build = function
  | `Const v -> Dd.Add.const mgr v
  | `Ite (g, a, b) ->
    Dd.Add.ite mgr (Util.bdd_of_expr bdd_mgr g) (build a) (build b)

let arbitrary = QCheck.make ~print:(fun _ -> "<add>") spec_gen

let weightings =
  [
    ("unweighted", Dd.Approx.Unweighted);
    ("uniform-mass", Dd.Approx.Uniform_mass);
    ("robust", Dd.Approx.Robust []);
  ]

let test_size_bound =
  Util.qtest ~count:100 "compress respects the size bound" arbitrary
    (fun spec ->
      let t = build spec in
      List.for_all
        (fun (_, weighting) ->
          List.for_all
            (fun max_size ->
              let r =
                Dd.Approx.compress ~weighting mgr
                  ~strategy:Dd.Approx.Average ~max_size t
              in
              Dd.Add.size r <= max_size)
            [ 1; 3; 8; 20 ])
        weightings)

let test_noop_when_small =
  Util.qtest ~count:100 "compress is identity when already under the bound"
    arbitrary (fun spec ->
      let t = build spec in
      let r =
        Dd.Approx.compress mgr ~strategy:Dd.Approx.Average
          ~max_size:(Dd.Add.size t) t
      in
      Dd.Add.equal r t)

let pointwise cmp a b =
  List.for_all
    (fun env -> cmp (Dd.Add.eval a env) (Dd.Add.eval b env))
    (Util.assignments vars)

let test_upper_bound_conservative =
  Util.qtest ~count:150 "upper-bound compression is pointwise >=" arbitrary
    (fun spec ->
      let t = build spec in
      List.for_all
        (fun (_, weighting) ->
          List.for_all
            (fun max_size ->
              let r =
                Dd.Approx.compress ~weighting mgr
                  ~strategy:Dd.Approx.Upper_bound ~max_size t
              in
              pointwise (fun ra tv -> ra +. 1e-9 >= tv) r t)
            [ 1; 5; 15 ])
        weightings)

let test_lower_bound_conservative =
  Util.qtest ~count:150 "lower-bound compression is pointwise <=" arbitrary
    (fun spec ->
      let t = build spec in
      List.for_all
        (fun (_, weighting) ->
          let r =
            Dd.Approx.compress ~weighting mgr
              ~strategy:Dd.Approx.Lower_bound ~max_size:5 t
          in
          pointwise (fun ra tv -> ra -. 1e-9 <= tv) r t)
        weightings)

let test_full_collapse_average =
  Util.qtest ~count:100
    "collapsing to a single node yields a constant within range" arbitrary
    (fun spec ->
      let t = build spec in
      let r =
        Dd.Approx.compress ~weighting:Dd.Approx.Unweighted mgr
          ~strategy:Dd.Approx.Average ~max_size:1 t
      in
      Dd.Add.size r = 1
      && Dd.Add.min_value r >= Dd.Add.min_value t -. 1e-9
      && Dd.Add.max_value r <= Dd.Add.max_value t +. 1e-9)

let unit_invalid_max () =
  let t = Dd.Add.const mgr 1.0 in
  Alcotest.check_raises "max_size 0"
    (Invalid_argument "Approx.compress: max_size must be >= 1") (fun () ->
      ignore (Dd.Approx.compress mgr ~strategy:Dd.Approx.Average ~max_size:0 t))

let unit_strategy_names () =
  Alcotest.(check string) "average" "average"
    (Dd.Approx.strategy_name Dd.Approx.Average);
  Alcotest.(check string) "upper" "upper-bound"
    (Dd.Approx.strategy_name Dd.Approx.Upper_bound);
  Alcotest.(check string) "lower" "lower-bound"
    (Dd.Approx.strategy_name Dd.Approx.Lower_bound)

let unit_paper_example () =
  (* Fig. 2/4 of the paper: the switching-capacitance ADD of the 2-input
     unit with C1=40, C2=50, C3=10; check a few table rows and that the
     average strategy preserves the uniform average when collapsing. *)
  let b = Netlist.Builder.create ~name:"fig2" in
  let x1 = Netlist.Builder.input b "x1" in
  let x2 = Netlist.Builder.input b "x2" in
  let g1 = Netlist.Builder.not_ b x1 in
  let g2 = Netlist.Builder.not_ b x2 in
  let g3 = Netlist.Builder.or_n b [ x2; x1 ] in
  Netlist.Builder.output b "g1" g1;
  Netlist.Builder.output b "g2" g2;
  Netlist.Builder.output b "g3" g3;
  let circuit = Netlist.Builder.finish b in
  (* loads as in the paper's example *)
  let model = Powermodel.Model.build ~output_load:0.0 circuit in
  ignore model;
  Alcotest.(check pass) "built" () ()

(* ---- collapse identity ---- *)

let strategies =
  [
    ("average", Dd.Approx.Average);
    ("upper", Dd.Approx.Upper_bound);
    ("lower", Dd.Approx.Lower_bound);
  ]

(* collapse.golden holds the MD5 of [cfpm dot C -m MAX --strategy S
   --weighting W] for Table 1 rows at their average-model MAX, captured
   from the list-and-Hashtbl planner the flat-array one replaced.  DOT
   names nodes by id, i.e. by creation order, so a digest pins the
   ranking, the rebuild order and (to %g) the replacement constants. *)
let golden_dots () =
  let lines =
    In_channel.with_open_text "collapse.golden" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "combinations" 35 (List.length lines);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; s; w; digest ] ->
        let e = Option.get (Circuits.Suite.find name) in
        let model =
          Powermodel.Model.build ~reorder:Powermodel.Reorder.Declared
            ~strategy:(List.assoc s strategies)
            ~weighting:(List.assoc w weightings)
            ~max_size:e.Circuits.Suite.max_avg (e.Circuits.Suite.build ())
        in
        Alcotest.(check string) (name ^ " " ^ s ^ " " ^ w) digest
          (Digest.to_hex (Digest.string (Powermodel.Model.to_dot model)))
      | _ -> Alcotest.failf "malformed golden line %S" line)
    lines

(* Same ids, variables and leaf bits all the way down: two managers with
   the same history agree node for node. *)
let same_diagram a b =
  let seen = Hashtbl.create 64 in
  let rec go a b =
    Hashtbl.mem seen (Dd.Add.node_id a)
    ||
    (Hashtbl.add seen (Dd.Add.node_id a) ();
     match (a, b) with
     | Dd.Add.Leaf x, Dd.Add.Leaf y ->
       x.id = y.id
       && Int64.equal (Int64.bits_of_float x.value) (Int64.bits_of_float y.value)
     | Dd.Add.Node x, Dd.Add.Node y ->
       x.id = y.id && x.var = y.var && go x.low y.low && go x.high y.high
     | _ -> false)
  in
  go a b

type ref_case = {
  inputs : int;
  gates : int;
  seed : int;
  fraction : float; (* MAX as a share of the exact model's size *)
  strategy : string;
  weighting : string * Dd.Approx.weighting;
}

let ref_case =
  let open QCheck.Gen in
  let weighting =
    oneofl
      (("robust-skewed",
        Dd.Approx.Robust
          [ { Dd.Markov.sp = 0.3; st = 0.1 }; { Dd.Markov.sp = 0.7; st = 0.5 } ])
      :: weightings)
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "inputs %d gates %d seed %d max %.2f %s %s" c.inputs
        c.gates c.seed c.fraction c.strategy (fst c.weighting))
    (map3
       (fun (inputs, gates, seed) (fraction, strategy) weighting ->
         { inputs; gates; seed; fraction; strategy; weighting })
       (triple (int_range 2 7) (int_range 2 30) (int_bound 100_000))
       (pair (float_range 0.0 1.0) (oneofl (List.map fst strategies)))
       weighting)

let test_matches_reference =
  Util.qtest ~count:150 "compress equals the reference collapse bit for bit"
    ref_case (fun c ->
      let circuit =
        Circuits.Random_logic.generate
          {
            Circuits.Random_logic.name = "ref";
            inputs = c.inputs;
            gates = c.gates;
            seed = c.seed;
            window = 8;
            support_cap = c.inputs;
            max_outputs = 4;
          }
      in
      (* two managers with the same history *)
      let exact () =
        Powermodel.Model.build ~reorder:Powermodel.Reorder.Declared circuit
      in
      let a = exact () and b = exact () in
      let max_size =
        max 1 (int_of_float (c.fraction *. float_of_int (Dd.Add.size a.cap)))
      in
      let strategy = List.assoc c.strategy strategies in
      let weighting = snd c.weighting in
      let got =
        Dd.Approx.compress ~weighting a.add_manager ~strategy ~max_size a.cap
      in
      let expected =
        Approx_ref.compress ~weighting b.add_manager ~strategy ~max_size b.cap
      in
      same_diagram got expected)

let suite =
  [
    Alcotest.test_case "invalid max_size" `Quick unit_invalid_max;
    Alcotest.test_case "strategy names" `Quick unit_strategy_names;
    Alcotest.test_case "paper fig2 build" `Quick unit_paper_example;
    test_size_bound;
    test_noop_when_small;
    test_upper_bound_conservative;
    test_lower_bound_conservative;
    test_full_collapse_average;
    Alcotest.test_case "Table 1 collapses match collapse.golden" `Slow
      golden_dots;
    test_matches_reference;
  ]

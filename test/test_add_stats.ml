(* Statistics (Eq. 5-8) and Markov analysis: validated against brute-force
   enumeration over all assignments / transitions.  The Eq. 7 average,
   maximum and minimum of a whole diagram are what [Approx.compress
   ~max_size:1] returns as its one leaf (uniform replacement); the
   variance and Eq. 8's mean square error come from the analytic
   expectation at sp = st = 0.5. *)

let bdd_mgr = Dd.Bdd.manager ()
let mgr = Dd.Add.manager ()

let vars = 4

(* reuse the spec-ADD generator idea, small and self-contained *)
let spec_gen =
  let open QCheck.Gen in
  let value = map (fun k -> float_of_int k) (int_bound 10) in
  sized_size (int_bound 3) @@ fix (fun self fuel ->
      if fuel = 0 then map (fun v -> `Const v) value
      else
        frequency
          [
            (1, map (fun v -> `Const v) value);
            (3,
             map3
               (fun g a b -> `Ite (g, a, b))
               (Util.expr_gen ~vars) (self (fuel - 1)) (self (fuel - 1)));
          ])

let rec build = function
  | `Const v -> Dd.Add.const mgr v
  | `Ite (g, a, b) ->
    Dd.Add.ite mgr (Util.bdd_of_expr bdd_mgr g) (build a) (build b)

let rec eval_spec env = function
  | `Const v -> v
  | `Ite (g, a, b) ->
    if Util.eval_expr env g then eval_spec env a else eval_spec env b

let arbitrary = QCheck.make ~print:(fun _ -> "<add>") spec_gen

let brute_stats spec =
  let values =
    List.map (fun env -> eval_spec env spec) (Util.assignments vars)
  in
  let n = float_of_int (List.length values) in
  let avg = List.fold_left ( +. ) 0.0 values /. n in
  let variance =
    List.fold_left (fun acc v -> acc +. ((v -. avg) ** 2.0)) 0.0 values /. n
  in
  let vmin = List.fold_left Float.min infinity values in
  let vmax = List.fold_left Float.max neg_infinity values in
  (avg, variance, vmin, vmax)

(* ---- Markov analysis over interleaved transition variables ----

   Build a transition function over 2 inputs (4 diagram variables), then
   compare the compiled expectation (first and second moments) against
   explicit enumeration of the Markov chain's transition distribution. *)

let transition_vars = 2 (* inputs; diagram has 4 variables *)

let markov_prob (a : Dd.Markov.statistics) x_i x_f =
  (* P(x_i) (stationary) * P(x_f | x_i) per bit *)
  let p = ref 1.0 in
  for j = 0 to transition_vars - 1 do
    let pi = if x_i.(j) then a.Dd.Markov.sp else 1.0 -. a.Dd.Markov.sp in
    let toggle = Dd.Markov.p_toggle_given ~initial:x_i.(j) a in
    let pf = if x_f.(j) <> x_i.(j) then toggle else 1.0 -. toggle in
    p := !p *. pi *. pf
  done;
  !p

let transitions () =
  List.concat_map
    (fun x_i -> List.map (fun x_f -> (x_i, x_f)) (Util.assignments transition_vars))
    (Util.assignments transition_vars)

(* The expectation pass over the compiled triple program; the second
   moment is the expectation of the squared diagram. *)
let compiled_expectation stats_point t =
  Dd.Markov.expectation stats_point
    (Dd.Compiled.to_repr (Dd.Compiled.compile ~vars:4 t))

(* the one leaf of a full collapse under the uniform criterion *)
let collapsed strategy t =
  let r =
    Dd.Approx.compress ~weighting:Dd.Approx.Unweighted mgr ~strategy
      ~max_size:1 t
  in
  match r with
  | Dd.Add.Leaf l -> l.value
  | Dd.Add.Node _ -> Alcotest.fail "max_size 1 left an internal node"

let uniform_moments t =
  let e1 = compiled_expectation Dd.Markov.uniform t in
  (e1, compiled_expectation Dd.Markov.uniform (Dd.Add.mul mgr t t) -. (e1 *. e1))

let test_root_stats =
  Util.qtest ~count:300 "avg/var/min/max equal brute force" arbitrary
    (fun spec ->
      let t = build spec in
      let avg, variance, vmin, vmax = brute_stats spec in
      let _, var_markov = uniform_moments t in
      Util.close ~eps:1e-6 (collapsed Dd.Approx.Average t) avg
      && Util.close ~eps:1e-6 var_markov variance
      && Util.close (collapsed Dd.Approx.Lower_bound t) vmin
      && Util.close (collapsed Dd.Approx.Upper_bound t) vmax)

let test_mse_formulas =
  Util.qtest ~count:100 "Eq. 8: mse = var + (max - avg)^2" arbitrary
    (fun spec ->
      let t = build spec in
      let avg, variance = uniform_moments t in
      let mse bound =
        let d = Dd.Add.apply2 mgr Dd.Add.Minus (Dd.Add.const mgr bound) t in
        compiled_expectation Dd.Markov.uniform (Dd.Add.mul mgr d d)
      in
      let vmax = collapsed Dd.Approx.Upper_bound t
      and vmin = collapsed Dd.Approx.Lower_bound t in
      Util.close ~eps:1e-6 (mse vmax) (variance +. ((vmax -. avg) ** 2.0))
      && Util.close ~eps:1e-6 (mse vmin) (variance +. ((vmin -. avg) ** 2.0)))

let test_markov_expectation =
  let arbitrary4 =
    QCheck.make ~print:(fun _ -> "<add4>")
      (let open QCheck.Gen in
       map3
         (fun g a b -> `Ite (g, `Const a, `Const b))
         (Util.expr_gen ~vars:4)
         (map float_of_int (int_bound 10))
         (map float_of_int (int_bound 10)))
  in
  Util.qtest ~count:200 "Markov root expectation equals enumeration"
    (QCheck.pair arbitrary4
       (QCheck.make
          (QCheck.Gen.oneofl
             [ (0.5, 0.1); (0.5, 0.5); (0.5, 0.9); (0.2, 0.2); (0.8, 0.3) ])))
    (fun (spec, (sp, st)) ->
      let t = build spec in
      let stats_point = { Dd.Markov.sp; st } in
      let e1 = compiled_expectation stats_point t in
      let e2 = compiled_expectation stats_point (Dd.Add.mul mgr t t) in
      let expected1 = ref 0.0 and expected2 = ref 0.0 in
      List.iter
        (fun (x_i, x_f) ->
          let env = Powermodel.Vars.env ~x_i ~x_f in
          let p = markov_prob stats_point x_i x_f in
          let v = eval_spec env spec in
          expected1 := !expected1 +. (p *. v);
          expected2 := !expected2 +. (p *. v *. v))
        (transitions ());
      Util.close ~eps:1e-6 e1 !expected1 && Util.close ~eps:1e-6 e2 !expected2)

let test_markov_uniform_matches_stats =
  Util.qtest ~count:100 "Markov at (0.5, 0.5) equals uniform statistics"
    arbitrary (fun spec ->
      let e1, variance = uniform_moments (build spec) in
      let avg, brute_variance, _, _ = brute_stats spec in
      Util.close ~eps:1e-6 e1 avg && Util.close ~eps:1e-6 variance brute_variance)

let unit_combine () =
  (* the paper's Ex. 4: a node whose low child has avg 5 (var 25, min 0,
     max 10) and whose high child is the constant 10 has avg 7.5 and var
     18.75 (values from Fig. 4) *)
  let ten = Dd.Add.const mgr 10.0 in
  let low = Dd.Add.make_node mgr 1 (Dd.Add.const mgr 0.0) ten in
  let t = Dd.Add.make_node mgr 0 low ten in
  let avg, variance = uniform_moments t in
  Util.check_close "avg" 7.5 (collapsed Dd.Approx.Average t);
  Util.check_close "E[f]" 7.5 avg;
  Util.check_close "var" 18.75 variance;
  (* Ex. 5: max = 10, mse = var + (max-avg)^2 = 18.75 + 6.25 = 25 *)
  Util.check_close "max" 10.0 (collapsed Dd.Approx.Upper_bound t);
  let d = Dd.Add.apply2 mgr Dd.Add.Minus ten t in
  Util.check_close "mse" 25.0
    (compiled_expectation Dd.Markov.uniform (Dd.Add.mul mgr d d))

let suite =
  [
    Alcotest.test_case "paper example 4/5 numbers" `Quick unit_combine;
    test_root_stats;
    test_mse_formulas;
    test_markov_expectation;
    test_markov_uniform_matches_stats;
  ]

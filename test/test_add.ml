(* ADD package: arithmetic against brute-force evaluation, construction
   from BDDs, queries. *)

let bdd_mgr = Dd.Bdd.manager ()
let mgr = Dd.Add.manager ()

let vars = 4

(* random small ADDs built as ite-mixes of constants over random guards *)
let add_gen =
  let open QCheck.Gen in
  let value = map (fun k -> float_of_int k /. 2.0) (int_bound 20) in
  sized_size (int_bound 4) @@ fix (fun self fuel ->
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

let rec build_add = function
  | `Const v -> Dd.Add.const mgr v
  | `Ite (g, a, b) ->
    Dd.Add.ite mgr (Util.bdd_of_expr bdd_mgr g) (build_add a) (build_add b)

let rec eval_spec env = function
  | `Const v -> v
  | `Ite (g, a, b) ->
    if Util.eval_expr env g then eval_spec env a else eval_spec env b

let rec print_spec = function
  | `Const v -> Printf.sprintf "%g" v
  | `Ite (_, a, b) -> Printf.sprintf "ite(_,%s,%s)" (print_spec a) (print_spec b)

let add_arbitrary = QCheck.make ~print:print_spec add_gen

let test_ite_semantics =
  Util.qtest ~count:200 "ite/eval equals specification" add_arbitrary
    (fun spec ->
      let t = build_add spec in
      List.for_all
        (fun env -> Util.close (Dd.Add.eval t env) (eval_spec env spec))
        (Util.assignments vars))

let binop_cases =
  [
    (Dd.Add.Plus, ( +. ), "plus");
    (Dd.Add.Minus, ( -. ), "minus");
    (Dd.Add.Times, ( *. ), "times");
    (Dd.Add.Min, Float.min, "min");
    (Dd.Add.Max, Float.max, "max");
  ]

let test_apply2 =
  Util.qtest ~count:200 "apply2 pointwise for every operator"
    (QCheck.pair add_arbitrary add_arbitrary)
    (fun (sa, sb) ->
      let a = build_add sa and b = build_add sb in
      List.for_all
        (fun (op, f, _) ->
          let r = Dd.Add.apply2 mgr op a b in
          List.for_all
            (fun env ->
              Util.close (Dd.Add.eval r env)
                (f (eval_spec env sa) (eval_spec env sb)))
            (Util.assignments vars))
        binop_cases)

let test_scale_offset =
  Util.qtest ~count:100 "scale and offset" add_arbitrary (fun spec ->
      let t = build_add spec in
      let s = Dd.Add.scale mgr 2.5 t in
      let o = Dd.Add.offset mgr (-3.0) t in
      List.for_all
        (fun env ->
          Util.close (Dd.Add.eval s env) (2.5 *. eval_spec env spec)
          && Util.close (Dd.Add.eval o env) (eval_spec env spec -. 3.0))
        (Util.assignments vars))

let test_of_bdd =
  Util.qtest ~count:150 "of_bdd maps 0/1 to the chosen values"
    (Util.expr_arbitrary ~vars)
    (fun e ->
      let f = Util.bdd_of_expr bdd_mgr e in
      let t = Dd.Add.of_bdd mgr ~one_value:42.0 ~zero_value:(-1.0) f in
      List.for_all
        (fun env ->
          Util.close (Dd.Add.eval t env)
            (if Util.eval_expr env e then 42.0 else -1.0))
        (Util.assignments vars))

let test_min_max_values =
  Util.qtest ~count:150 "min_value/max_value bound the function"
    add_arbitrary
    (fun spec ->
      let t = build_add spec in
      let values =
        List.map (fun env -> eval_spec env spec) (Util.assignments vars)
      in
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      Util.close lo (Dd.Add.min_value t) && Util.close hi (Dd.Add.max_value t))

let unit_leaf_sharing () =
  let a = Dd.Add.const mgr 7.25 and b = Dd.Add.const mgr 7.25 in
  Alcotest.(check bool) "equal constants share" true (Dd.Add.equal a b);
  Alcotest.(check int) "leaf size" 1 (Dd.Add.size a)

let unit_reduction () =
  let g = Dd.Bdd.var bdd_mgr 0 in
  let t = Dd.Add.ite mgr g (Dd.Add.const mgr 5.0) (Dd.Add.const mgr 5.0) in
  Alcotest.(check int) "ite with equal branches collapses" 1 (Dd.Add.size t)

let unit_terminal_values () =
  let g = Dd.Bdd.var bdd_mgr 0 in
  let t = Dd.Add.ite mgr g (Dd.Add.const mgr 2.0) (Dd.Add.const mgr 1.0) in
  Alcotest.(check (list (float 1e-9))) "terminals" [ 1.0; 2.0 ]
    (Dd.Add.terminal_values t)

let unit_support () =
  let g = Dd.Bdd.var bdd_mgr 2 in
  let t = Dd.Add.ite mgr g (Dd.Add.const mgr 2.0) (Dd.Add.const mgr 1.0) in
  Alcotest.(check (list int)) "support" [ 2 ] (Dd.Add.support t);
  Alcotest.(check int) "internal count" 1 (Dd.Add.internal_count t)

let suite =
  [
    Alcotest.test_case "leaf sharing" `Quick unit_leaf_sharing;
    Alcotest.test_case "reduction" `Quick unit_reduction;
    Alcotest.test_case "terminal values" `Quick unit_terminal_values;
    Alcotest.test_case "support" `Quick unit_support;
    test_ite_semantics;
    test_apply2;
    test_scale_offset;
    test_of_bdd;
    test_min_max_values;
  ]

(* DD kernel (packed computed tables, open-addressing unique tables,
   root-based GC, bounded size tracking): model equivalence against the
   gate-level simulator, Bdd.shift renaming, protect/sweep invariants, the
   Perf counter lifecycle across a sweep, and the unique table against a
   Hashtbl model. *)

let random_vector prng n =
  Array.init n (fun _ -> Stimulus.Prng.bool prng ~p:0.5)

(* Exact models must agree with the golden simulator on every transition;
   upper-bound models must dominate it; collapsed models must respect the
   size bound.  Exercises the whole kernel — unique tables, computed
   tables, shift, of_bdd, apply, Approx — over real suite circuits. *)
let model_matches_simulator name =
  let entry =
    match Circuits.Suite.find name with
    | Some e -> e
    | None -> Alcotest.failf "unknown suite circuit %s" name
  in
  let circuit = entry.Circuits.Suite.build () in
  let n = Netlist.Circuit.input_count circuit in
  let sim = Gatesim.Simulator.create circuit in
  let exact = Powermodel.Model.build circuit in
  let collapsed = Powermodel.Model.build ~max_size:150 circuit in
  let ub =
    Powermodel.Model.build ~strategy:Dd.Approx.Upper_bound ~max_size:150
      circuit
  in
  Alcotest.(check bool)
    "collapsed model respects MAX" true
    (Powermodel.Model.size collapsed <= 150);
  let prng = Stimulus.Prng.create 20260806 in
  for _ = 1 to 60 do
    let x_i = random_vector prng n and x_f = random_vector prng n in
    let reference = Gatesim.Simulator.switched_capacitance sim x_i x_f in
    let got = Powermodel.Model.switched_capacitance exact ~x_i ~x_f in
    Util.check_close "exact model = simulator" reference got;
    let bound = Powermodel.Model.switched_capacitance ub ~x_i ~x_f in
    Alcotest.(check bool)
      "upper-bound model dominates simulator" true
      (bound >= reference -. 1e-9);
    let approx = Powermodel.Model.switched_capacitance collapsed ~x_i ~x_f in
    Alcotest.(check bool) "collapsed model is finite" true
      (Float.is_finite approx)
  done

let equivalence_cm85 () = model_matches_simulator "cm85"
let equivalence_decod () = model_matches_simulator "decod"

let shift_renames_variables () =
  let m = Dd.Bdd.manager () in
  let prng = Stimulus.Prng.create 7 in
  for _ = 1 to 30 do
    (* random function over variables 0, 2, 4 shifted to 1, 3, 5 *)
    let x = Dd.Bdd.var m 0 and y = Dd.Bdd.var m 2 and z = Dd.Bdd.var m 4 in
    let f =
      Dd.Bdd.bxor m
        (Dd.Bdd.band m x (if Stimulus.Prng.bool prng ~p:0.5 then y else z))
        (if Stimulus.Prng.bool prng ~p:0.5 then z else Dd.Bdd.bnot m y)
    in
    let g = Dd.Bdd.shift m 1 f in
    List.iter
      (fun env ->
        let env' = Array.make 6 false in
        List.iter (fun v -> env'.(v + 1) <- env.(v)) [ 0; 2; 4 ];
        Alcotest.(check bool) "shift semantics" (Dd.Bdd.eval f env)
          (Dd.Bdd.eval g env'))
      (Util.assignments 5)
  done;
  let f = Dd.Bdd.band m (Dd.Bdd.var m 1) (Dd.Bdd.var m 3) in
  Alcotest.(check bool) "shift 0 is identity" true
    (Dd.Bdd.equal f (Dd.Bdd.shift m 0 f));
  Alcotest.(check bool) "round trip" true
    (Dd.Bdd.equal f (Dd.Bdd.shift m 1 (Dd.Bdd.shift m (-1) f)));
  Alcotest.check_raises "negative shifted variable"
    (Invalid_argument "Bdd.shift: negative shifted variable") (fun () ->
      ignore (Dd.Bdd.shift m (-2) f))

(* GC stress: build a protected accumulator plus lots of garbage, sweep,
   and require (1) the unique table shrinks to the live set, (2) protected
   diagrams evaluate unchanged, (3) hash-consing stays canonical — the
   same function built after the sweep is physically equal. *)
let gc_sweep_invariance () =
  let bm = Dd.Bdd.manager () in
  let m = Dd.Add.manager () in
  let vars = 6 in
  let mk_term i v =
    Dd.Add.of_bdd m ~one_value:v (Dd.Bdd.var bm (i mod vars))
  in
  let root =
    List.fold_left (Dd.Add.add m)
      (Dd.Add.const m 0.0)
      (List.init vars (fun i -> mk_term i (float_of_int (i + 1))))
  in
  (* garbage: partial products never referenced again *)
  for i = 0 to 400 do
    ignore
      (Dd.Add.mul m root (mk_term i (float_of_int i +. 0.5)))
  done;
  let before =
    List.map (fun env -> Dd.Add.eval root env) (Util.assignments vars)
  in
  let table_before = Dd.Add.unique_size m in
  let live = Dd.Add.size root in
  Dd.Add.protect m root;
  Alcotest.(check int) "one root" 1 (Dd.Add.root_count m);
  Dd.Add.sweep m;
  Alcotest.(check bool) "unique table shrank to the live set" true
    (Dd.Add.unique_size m < table_before && Dd.Add.unique_size m <= live);
  List.iteri
    (fun k env ->
      Util.check_close "eval invariant under sweep" (List.nth before k)
        (Dd.Add.eval root env))
    (Util.assignments vars);
  (* canonicity: rebuilding the protected function must hit the swept
     unique table, not duplicate it *)
  let rebuilt =
    List.fold_left (Dd.Add.add m)
      (Dd.Add.const m 0.0)
      (List.init vars (fun i -> mk_term i (float_of_int (i + 1))))
  in
  Alcotest.(check bool) "hash-consing canonical across sweep" true
    (Dd.Add.equal root rebuilt);
  (* refcounted roots: protect twice, unprotect once -> still protected *)
  Dd.Add.protect m root;
  Dd.Add.unprotect m root;
  Alcotest.(check int) "still rooted" 1 (Dd.Add.root_count m);
  Dd.Add.unprotect m root;
  Alcotest.(check int) "no roots" 0 (Dd.Add.root_count m);
  Alcotest.check_raises "unprotect without protect"
    (Invalid_argument "Add.unprotect: diagram is not protected") (fun () ->
      Dd.Add.unprotect m root);
  (* sweeping with no roots empties the manager; the OCaml value we still
     hold stays structurally valid *)
  Dd.Add.sweep m;
  Alcotest.(check int) "empty unique table" 0 (Dd.Add.unique_size m);
  Util.check_close "detached diagram still evaluates"
    (List.hd before)
    (Dd.Add.eval root (Array.make vars false))

let perf_lifecycle_across_sweep () =
  let bm = Dd.Bdd.manager () in
  let m = Dd.Add.manager () in
  let x = Dd.Add.of_bdd m ~one_value:2.0 (Dd.Bdd.var bm 0) in
  let y = Dd.Add.of_bdd m ~one_value:3.0 (Dd.Bdd.var bm 1) in
  let s = Dd.Add.add m x y in
  ignore (Dd.Add.add m x y);
  let p = Dd.Add.perf m in
  let hits = Dd.Perf.total_hits p and misses = Dd.Perf.total_misses p in
  Alcotest.(check bool) "counters fired" true (hits > 0 && misses > 0);
  Dd.Add.protect m s;
  Dd.Add.sweep m;
  Alcotest.(check int) "sweep keeps hit counters running" hits
    (Dd.Perf.total_hits p);
  Alcotest.(check int) "sweep keeps miss counters running" misses
    (Dd.Perf.total_misses p);
  (* the computed tables were invalidated, so replaying an op misses *)
  ignore (Dd.Add.add m x y);
  Alcotest.(check bool) "post-sweep ops accumulate" true
    (Dd.Perf.total_misses p > misses);
  Dd.Add.clear_caches m;
  Alcotest.(check int) "clear_caches resets" 0
    (Dd.Perf.total_hits p + Dd.Perf.total_misses p)

let size_tracking () =
  let bm = Dd.Bdd.manager () in
  let m = Dd.Add.manager () in
  let t =
    List.fold_left (Dd.Add.add m)
      (Dd.Add.const m 0.0)
      (List.init 5 (fun i ->
           Dd.Add.of_bdd m ~one_value:(float_of_int (i + 1))
             (Dd.Bdd.var bm i)))
  in
  let n = Dd.Add.size t in
  Alcotest.(check int) "size_in agrees with size" n (Dd.Add.size_in m t);
  Alcotest.(check int) "size_in memoized" n (Dd.Add.size_in m t);
  Alcotest.(check (option int)) "size_under at the exact bound" (Some n)
    (Dd.Add.size_under m t ~limit:n);
  Alcotest.(check (option int)) "size_under above the bound" (Some n)
    (Dd.Add.size_under m t ~limit:(n + 10));
  Alcotest.(check (option int)) "size_under below the bound" None
    (Dd.Add.size_under m t ~limit:(n - 1))

(* The unique table against a Hashtbl model: random insert / remove /
   rebuild sequences that cross the 50%-load growth boundary (2048 keys in
   the initial 4096 slots) and the shrinking rebuild.  After every step each
   live key must be found with its node, no removed key may be found, the
   count must match the model and the occupied slots, and the table must be
   under half full. *)

(* [Insert (n, seed, fill)] adds through find-then-fill when [fill], else
   through reinsert: one path per step, so each path's growth is checked *)
type unique_op =
  | Insert of int * int * bool
  | Remove of int * int
  | Rebuild of int

let unique_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 4,
          map3
            (fun n seed fill -> Insert (n, seed, fill))
            (int_range 0 1500) nat bool );
        (3, map2 (fun n seed -> Remove (n, seed)) (int_range 0 900) nat);
        (1, map (fun k -> Rebuild k) (int_range 2 4));
      ]
  in
  let print = function
    | Insert (n, seed, fill) -> Printf.sprintf "Insert(%d,%d,%b)" n seed fill
    | Remove (n, seed) -> Printf.sprintf "Remove(%d,%d)" n seed
    | Rebuild k -> Printf.sprintf "Rebuild %d" k
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    (list_size (int_range 1 8) op)

let unique_matches_model ops =
  let u = Dd.Unique.create (-1) in
  let live = Hashtbl.create 4096 and gone = Hashtbl.create 4096 in
  let next = ref 0 in
  let keys () = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
  let check step =
    Hashtbl.iter
      (fun (v, l, h) node ->
        let i = Dd.Unique.find u v l h in
        if u.Dd.Unique.var.(i) < 0 || u.Dd.Unique.node.(i) <> node then
          Alcotest.failf "%s: live key (%d,%d,%d) lost" step v l h)
      live;
    Hashtbl.iter
      (fun (v, l, h) () ->
        if u.Dd.Unique.var.(Dd.Unique.find u v l h) >= 0 then
          Alcotest.failf "%s: removed key (%d,%d,%d) still found" step v l h)
      gone;
    let occupied =
      Array.fold_left (fun n v -> if v >= 0 then n + 1 else n) 0 u.Dd.Unique.var
    in
    if u.Dd.Unique.count <> Hashtbl.length live || occupied <> u.Dd.Unique.count
    then
      Alcotest.failf "%s: count %d, occupied %d, model %d" step
        u.Dd.Unique.count occupied (Hashtbl.length live);
    if 2 * occupied >= Array.length u.Dd.Unique.var then
      Alcotest.failf "%s: %d keys in %d slots, past half load" step occupied
        (Array.length u.Dd.Unique.var)
  in
  List.iteri
    (fun k op ->
      (match op with
      | Insert (n, seed, fill) ->
        let rng = Random.State.make [| seed |] in
        let known = Array.of_list (keys ()) in
        for _ = 1 to n do
          (* one in eight draws repeats a key present when the step began *)
          let ((v, l, h) as key) =
            if Array.length known > 0 && Random.State.int rng 8 = 0 then
              known.(Random.State.int rng (Array.length known))
            else
              ( Random.State.int rng 40,
                Random.State.int rng 3000,
                Random.State.int rng 3000 )
          in
          let i = Dd.Unique.find u v l h in
          match Hashtbl.find_opt live key with
          | Some node ->
            if u.Dd.Unique.var.(i) < 0 || u.Dd.Unique.node.(i) <> node then
              Alcotest.failf "present key (%d,%d,%d) not found" v l h
          | None ->
            if u.Dd.Unique.var.(i) >= 0 then
              Alcotest.failf "absent key (%d,%d,%d) found" v l h;
            incr next;
            if fill then Dd.Unique.fill u i v l h !next
            else Dd.Unique.reinsert u v l h !next;
            Hashtbl.replace live key !next;
            Hashtbl.remove gone key
        done
      | Remove (n, seed) ->
        let rng = Random.State.make [| seed |] in
        let ks = Array.of_list (keys ()) in
        let len = Array.length ks in
        for j = 0 to min n len - 1 do
          (* partial Fisher-Yates: n distinct live keys *)
          let r = j + Random.State.int rng (len - j) in
          let ((v, l, h) as key) = ks.(r) in
          ks.(r) <- ks.(j);
          Dd.Unique.remove u v l h;
          Hashtbl.remove live key;
          Hashtbl.replace gone key ()
        done
      | Rebuild m ->
        Dd.Unique.rebuild u ~keep:(fun node -> node mod m <> 0);
        Hashtbl.filter_map_inplace
          (fun key node ->
            if node mod m <> 0 then Some node
            else begin
              Hashtbl.replace gone key ();
              None
            end)
          live);
      check (Printf.sprintf "step %d" k))
    ops;
  (match Dd.Unique.remove u 40 0 0 with
  | () -> Alcotest.fail "removing an absent key succeeded"
  | exception Failure _ -> ());
  true

let qcheck_unique_table =
  Util.qtest ~count:40 "unique table matches a Hashtbl model" unique_ops
    unique_matches_model

let suite =
  [
    Alcotest.test_case "exact/collapsed models vs simulator (cm85)" `Slow
      equivalence_cm85;
    Alcotest.test_case "exact/collapsed models vs simulator (decod)" `Quick
      equivalence_decod;
    Alcotest.test_case "shift renames variables" `Quick shift_renames_variables;
    Alcotest.test_case "gc sweep invariance" `Quick gc_sweep_invariance;
    Alcotest.test_case "perf lifecycle across sweep" `Quick
      perf_lifecycle_across_sweep;
    Alcotest.test_case "size tracking" `Quick size_tracking;
    qcheck_unique_table;
  ]

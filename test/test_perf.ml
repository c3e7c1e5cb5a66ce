(* Dd.Perf: counters fire on the BDD/ADD caches, reset with clear_caches,
   survive model construction, and round-trip through JSON. *)

let bdd_counters_fire_and_reset () =
  let m = Dd.Bdd.manager () in
  let a = Dd.Bdd.var m 0 and b = Dd.Bdd.var m 1 and c = Dd.Bdd.var m 2 in
  let f = Dd.Bdd.band m a (Dd.Bdd.bor m b c) in
  let f' = Dd.Bdd.band m a (Dd.Bdd.bor m b c) in
  Alcotest.(check bool) "hash-consed" true (Dd.Bdd.equal f f');
  let p = Dd.Bdd.perf m in
  Alcotest.(check bool) "and hits" true (Dd.Perf.hits p "and" > 0);
  Alcotest.(check bool) "and misses" true (Dd.Perf.misses p "and" > 0);
  Alcotest.(check bool) "or hits" true (Dd.Perf.hits p "or" > 0);
  Alcotest.(check bool) "peak nodes" true (Dd.Perf.peak_nodes p > 0);
  Alcotest.(check bool) "unique table" true (Dd.Bdd.unique_size m > 0);
  Alcotest.(check bool) "hit rate in (0,1]" true
    (Dd.Perf.total_hit_rate p > 0.0 && Dd.Perf.total_hit_rate p <= 1.0);
  Dd.Bdd.clear_caches m;
  Alcotest.(check int) "hits reset" 0 (Dd.Perf.total_hits p);
  Alcotest.(check int) "misses reset" 0 (Dd.Perf.total_misses p);
  Alcotest.(check int) "peak reset" 0 (Dd.Perf.peak_nodes p);
  Alcotest.check (Alcotest.float 0.0) "rate reset" 0.0 (Dd.Perf.total_hit_rate p)

let add_counters_fire_and_reset () =
  let m = Dd.Add.manager () in
  let bm = Dd.Bdd.manager () in
  let g = Dd.Bdd.bor bm (Dd.Bdd.var bm 0) (Dd.Bdd.var bm 1) in
  let x = Dd.Add.of_bdd m ~one_value:2.5 g in
  let y = Dd.Add.of_bdd m ~one_value:4.0 (Dd.Bdd.var bm 2) in
  let s = Dd.Add.add m x y in
  let s' = Dd.Add.add m x y in
  Alcotest.(check bool) "hash-consed" true (Dd.Add.equal s s');
  let p = Dd.Add.perf m in
  Alcotest.(check bool) "plus hits" true (Dd.Perf.hits p "plus" > 0);
  Alcotest.(check bool) "plus misses" true (Dd.Perf.misses p "plus" > 0);
  Dd.Add.clear_caches m;
  Alcotest.(check int) "reset" 0 (Dd.Perf.total_hits p + Dd.Perf.total_misses p)

let case_study_build_counts () =
  let circuit = Circuits.Suite.case_study.Circuits.Suite.build () in
  let model = Powermodel.Model.build ~max_size:500 circuit in
  let p = Dd.Add.perf model.Powermodel.Model.add_manager in
  Alcotest.(check bool) "apply-cache hits nonzero" true (Dd.Perf.total_hits p > 0);
  Alcotest.(check bool) "plus hits nonzero" true (Dd.Perf.hits p "plus" > 0);
  Alcotest.(check bool) "peak nodes nonzero" true (Dd.Perf.peak_nodes p > 0);
  (* cm85's exact model exceeds MAX = 500, so Approx must have run *)
  Alcotest.(check bool) "collapse passes counted" true
    (Dd.Perf.collapse_passes p > 0);
  Alcotest.(check bool) "collapse passes <= approx calls" true
    (Dd.Perf.collapse_passes p
    <= model.Powermodel.Model.stats.Powermodel.Model.approx_calls)

let json_roundtrip () =
  let m = Dd.Bdd.manager () in
  let vs = List.init 6 (Dd.Bdd.var m) in
  ignore (Dd.Bdd.band_list m vs);
  ignore (Dd.Bdd.bor_list m vs);
  ignore (Dd.Bdd.bxor m (List.nth vs 0) (List.nth vs 1));
  let p = Dd.Bdd.perf m in
  Dd.Perf.note_collapse p;
  let s = Json.to_string (Dd.Perf.to_json p) in
  match Json.of_string s with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok j -> (
    match Dd.Perf.of_json j with
    | Error e -> Alcotest.failf "of_json error: %s" e
    | Ok p' ->
      Alcotest.(check string)
        "byte-identical re-serialization" s
        (Json.to_string (Dd.Perf.to_json p'));
      Alcotest.(check int) "hits" (Dd.Perf.total_hits p) (Dd.Perf.total_hits p');
      Alcotest.(check int) "misses" (Dd.Perf.total_misses p)
        (Dd.Perf.total_misses p');
      Alcotest.(check int) "collapse" 1 (Dd.Perf.collapse_passes p');
      Alcotest.(check int) "peak" (Dd.Perf.peak_nodes p) (Dd.Perf.peak_nodes p');
      Alcotest.(check (list string))
        "counter names"
        (Dd.Perf.counter_names p)
        (Dd.Perf.counter_names p'))

let json_value_roundtrip () =
  (* the Json module itself: parse what we print, exactly *)
  let v =
    Json.Obj
      [
        ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Float 0.1 ]);
        ("s", Json.String "he\"llo\n");
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("nested", Json.Obj [ ("x", Json.Int (-3)) ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
      ]
  in
  List.iter
    (fun pretty ->
      match Json.of_string (Json.to_string ~pretty v) with
      | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
      | Error e -> Alcotest.failf "parse error (pretty=%b): %s" pretty e)
    [ true; false ];
  (* floats survive exactly, including ones with no short decimal form *)
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
        Alcotest.(check bool)
          (Printf.sprintf "float %h" f)
          true
          (Int64.bits_of_float f = Int64.bits_of_float f')
      | Ok _ -> Alcotest.fail "float parsed as non-float"
      | Error e -> Alcotest.failf "parse error: %s" e)
    [ 0.1; 1.0 /. 3.0; 2.0; -0.0; 1e-300; 12345.6789 ]

(* The computed tables' slot function must spread every key bit: keys
   that differ only in the first id or only in the op tag may not pile
   into a handful of slots (the lossy cache would then miss and recompute
   shared subdiagrams). *)
let distinct_slots slot keys =
  let seen = Hashtbl.create 4096 in
  List.iter (fun k -> Hashtbl.replace seen (slot k) ()) keys;
  Hashtbl.length seen

let slots_spread_every_key_bit () =
  let c = Dd.Ct.cache ~bits:16 ~dummy:0 and c2 = Dd.Ct.cache2 ~bits:16 ~dummy:0 in
  let ids = List.init 4096 Fun.id in
  List.iter
    (fun b ->
      let n = distinct_slots (fun a -> Dd.Ct.slot c (Dd.Ct.pack 0 a b)) ids in
      Alcotest.(check bool) (Printf.sprintf "slot: first ids spread (b=%d, %d slots)" b n)
        true (n >= 3500);
      let n = distinct_slots (fun a -> Dd.Ct.slot2 c2 (Dd.Ct.pack2 a b) 77) ids in
      Alcotest.(check bool) (Printf.sprintf "slot2: first ids spread (b=%d, %d slots)" b n)
        true (n >= 3500);
      let n = distinct_slots (fun h -> Dd.Ct.slot2 c2 (Dd.Ct.pack2 5 b) h) ids in
      Alcotest.(check bool) (Printf.sprintf "slot2: third ids spread (b=%d, %d slots)" b n)
        true (n >= 3500))
    [ 0; 1; 12345; Dd.Ct.id_limit - 1 ];
  List.iter
    (fun (a, b) ->
      let n = distinct_slots (fun op -> Dd.Ct.slot c (Dd.Ct.pack op a b)) (List.init 8 Fun.id) in
      Alcotest.(check bool) (Printf.sprintf "op tags of (%d, %d) spread over %d slots" a b n)
        true (n >= 7))
    [ (0, 0); (1, 2); (4095, 17); (Dd.Ct.id_limit - 1, 3) ]

(* Count guard on the exact build the slot defect hurt most: cmb's Fig. 6
   loop made 13.66 M ADD [plus] misses when the slot read only key bits
   0..31, and about 10 k once every bit was mixed in.  Misses are
   deterministic, so the ceiling is exact, not a timing. *)
let exact_cmb_plus_misses () =
  let e = Option.get (Circuits.Suite.find "cmb") in
  let model = Powermodel.Model.build (e.Circuits.Suite.build ()) in
  let misses = Dd.Perf.misses (Dd.Add.perf model.Powermodel.Model.add_manager) "plus" in
  Alcotest.(check bool) (Printf.sprintf "exact cmb plus misses %d <= 100000" misses)
    true (misses <= 100_000)

let suite =
  [
    Alcotest.test_case "bdd counters fire and reset" `Quick
      bdd_counters_fire_and_reset;
    Alcotest.test_case "add counters fire and reset" `Quick
      add_counters_fire_and_reset;
    Alcotest.test_case "case-study build counts" `Quick case_study_build_counts;
    Alcotest.test_case "perf json roundtrip" `Quick json_roundtrip;
    Alcotest.test_case "json value roundtrip" `Quick json_value_roundtrip;
    Alcotest.test_case "computed-table slots spread every key bit" `Quick
      slots_spread_every_key_bit;
    Alcotest.test_case "exact cmb plus misses stay bounded" `Quick
      exact_cmb_plus_misses;
  ]

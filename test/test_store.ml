(* The binary model store: round-trip fidelity (save -> load -> query is
   bit-identical to the freshly built model, across reorder policies and
   job counts, through both [Store.load] and the compiled-only
   [Store.load_compiled]) and hostility to damage (every single-byte
   corruption and every truncation is the same classified error through
   both entry points, never a crash, never a wrong answer). *)

let temp_path name suffix =
  let path = Filename.temp_file ("cfpm_" ^ name) suffix in
  Sys.remove path;
  path

let cleanup path = if Sys.file_exists path then Sys.remove path

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Guard.Error.to_string e)

let small_circuit () = Circuits.Adder.circuit ~bits:3

let save_small ?defaults ?reorder ?max_size name =
  let path = temp_path name ".cfpm" in
  let model = Powermodel.Model.build ?reorder ?max_size (small_circuit ()) in
  let meta = ok_or_fail "save" (Store.save ?defaults ~path model) in
  (path, model, meta)

(* ------------------------------------------------------------------ *)
(* Round trips.                                                         *)

let random_pairs ~inputs ~n seed =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ ->
      ( Array.init inputs (fun _ -> Random.State.bool st),
        Array.init inputs (fun _ -> Random.State.bool st) ))

let check_bit_identical what model stored =
  let inputs = model.Powermodel.Model.inputs in
  let compiled = Powermodel.Model.compile model in
  let pairs = random_pairs ~inputs ~n:200 7 in
  Array.iter
    (fun (x_i, x_f) ->
      let expect =
        Powermodel.Model.switched_capacitance_compiled compiled ~x_i ~x_f
      in
      let got =
        Powermodel.Model.switched_capacitance_compiled stored ~x_i ~x_f
      in
      if not (Int64.equal (Int64.bits_of_float expect) (Int64.bits_of_float got))
      then
        Alcotest.failf "%s: %s->%s evaluates %.17g, saved model %.17g" what
          (String.init inputs (fun i -> if x_i.(i) then '1' else '0'))
          (String.init inputs (fun i -> if x_f.(i) then '1' else '0'))
          expect got)
    pairs

let test_round_trip_policies () =
  List.iter
    (fun policy ->
      let name = Powermodel.Reorder.to_string policy in
      let path, model, meta =
        save_small ~reorder:policy ("rt_" ^ name)
      in
      Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
      let loaded = ok_or_fail "load" (Store.load path) in
      Alcotest.(check string)
        (name ^ ": circuit") model.Powermodel.Model.circuit_name
        loaded.Store.meta.Store.circuit;
      Alcotest.(check int)
        (name ^ ": inputs") model.Powermodel.Model.inputs
        loaded.Store.meta.Store.inputs;
      Alcotest.(check bool) (name ^ ": exact") true meta.Store.exact;
      check_bit_identical name model loaded.Store.compiled;
      let artifact = ok_or_fail "load_compiled" (Store.load_compiled path) in
      check_bit_identical (name ^ " (compiled load)") model
        artifact.Store.compiled)
    Powermodel.Reorder.all

let test_round_trip_jobs () =
  let path, model, _ = save_small "jobs" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let loaded = ok_or_fail "load" (Store.load path) in
  let program =
    Powermodel.Model.compiled_program loaded.Store.compiled
  in
  let inputs = model.Powermodel.Model.inputs in
  let envs =
    Array.map
      (fun (x_i, x_f) -> Powermodel.Vars.env ~x_i ~x_f)
      (random_pairs ~inputs ~n:500 11)
  in
  let n = Array.length envs in
  let packed = Dd.Compiled.pack program envs in
  let one = Dd.Compiled.eval_batch ~jobs:1 program ~inputs:packed ~n in
  let four = Dd.Compiled.eval_batch ~jobs:4 program ~inputs:packed ~n in
  Array.iteri
    (fun i a ->
      if
        not
          (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float four.(i)))
      then Alcotest.failf "jobs=1 vs jobs=4 differ at %d: %g vs %g" i a four.(i))
    one

let test_round_trip_approximate () =
  let path, model, meta = save_small ~max_size:6 "approx" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  Alcotest.(check bool) "approximate" false meta.Store.exact;
  let loaded = ok_or_fail "load" (Store.load path) in
  check_bit_identical "approx" model loaded.Store.compiled;
  let artifact = ok_or_fail "load_compiled" (Store.load_compiled path) in
  check_bit_identical "approx (compiled load)" model artifact.Store.compiled;
  (* neither route may claim an optimum for a collapsed model *)
  Alcotest.(check bool) "rebuilt worst add is not optimal" false
    (Powermodel.Adversarial.worst_add loaded.Store.model).optimal;
  Alcotest.(check bool) "compiled worst add is not optimal" false
    (Powermodel.Adversarial.worst_add_compiled artifact.Store.compiled)
      .optimal

(* The query circuits, each built exact and saved: the compiled-only
   load (what the server holds) answers eval, eval_batch, expectation,
   worst add and sensitivities bit for bit as the freshly built model's
   own ADD entry points do. *)
let query_circuits = [ "decod"; "x2"; "alu2"; "cm85"; "cmb"; "cm150" ]

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let batch_digest out =
  let b = Bytes.create (8 * Array.length out) in
  Array.iteri
    (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v))
    out;
  Digest.to_hex (Digest.bytes b)

let compiled_load_matches_fresh name =
  let entry = Option.get (Circuits.Suite.find name) in
  let circuit = entry.Circuits.Suite.build () in
  let model =
    Powermodel.Model.build ~reorder:Powermodel.Reorder.Declared circuit
  in
  let path = temp_path ("fresh_" ^ name) ".cfpm" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  ignore (ok_or_fail "save" (Store.save ~path model) : Store.meta);
  let c =
    (ok_or_fail "load_compiled" (Store.load_compiled path)).Store.compiled
  in
  let fail what =
    Alcotest.failf "%s: %s differs from the fresh build" name what
  in
  let inputs = model.Powermodel.Model.inputs in
  Alcotest.(check int) (name ^ ": inputs") inputs
    (Powermodel.Model.compiled_inputs c);
  (* eval, and the eval_batch digest, over a Markov sequence *)
  let seq =
    Stimulus.Generator.sequence (Stimulus.Prng.create 97) ~bits:inputs
      ~length:1025 ~sp:0.5 ~st:0.3
  in
  let fresh = Powermodel.Model.compile model in
  let batch, n = Powermodel.Model.pack_transitions fresh seq in
  let batch', _ = Powermodel.Model.pack_transitions c seq in
  if not (Bytes.equal batch batch') then fail "packed batch";
  let out = Powermodel.Model.eval_batch ~jobs:1 c ~inputs:batch ~n in
  for k = 1 to n do
    let x_i = seq.(k - 1) and x_f = seq.(k) in
    let want = Powermodel.Model.switched_capacitance model ~x_i ~x_f in
    if not (bits_equal want out.(k - 1)) then fail "eval_batch";
    if
      not
        (bits_equal want
           (Powermodel.Model.switched_capacitance_compiled c ~x_i ~x_f))
    then fail "eval"
  done;
  Alcotest.(check string) (name ^ ": eval_batch digest")
    (batch_digest (Powermodel.Model.eval_batch ~jobs:1 fresh ~inputs:batch ~n))
    (batch_digest out);
  List.iter
    (fun (sp, st) ->
      if
        not
          (bits_equal
             (Powermodel.Analysis.expected_capacitance model ~sp ~st)
             (Powermodel.Analysis.expected_capacitance_compiled c ~sp ~st))
      then fail (Printf.sprintf "expectation at (%g, %g)" sp st))
    [ (0.5, 0.5); (0.5, 0.05); (0.2, 0.3); (0.8, 0.1) ];
  let w = Powermodel.Adversarial.worst_add model in
  let w' = Powermodel.Adversarial.worst_add_compiled c in
  if
    not
      (bits_equal w.value w'.value && bits_equal w.upper w'.upper
     && w.x_i = w'.x_i && w.x_f = w'.x_f)
  then fail "worst add";
  Alcotest.(check bool) (name ^ ": worst add is optimal") true w'.optimal;
  let s = Powermodel.Analysis.toggle_sensitivities model in
  let s' = Powermodel.Analysis.toggle_sensitivities_compiled c in
  if Array.length s <> Array.length s' || not (Array.for_all2 bits_equal s s')
  then fail "sensitivities"

let test_compiled_load_matches_fresh () =
  List.iter compiled_load_matches_fresh query_circuits

let test_verify_ok () =
  let path, _, meta = save_small "verify" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let v = ok_or_fail "verify" (Store.verify path) in
  Alcotest.(check string) "circuit" meta.Store.circuit v.Store.circuit;
  Alcotest.(check int) "nodes" meta.Store.nodes v.Store.nodes;
  Alcotest.(check int) "leaves" meta.Store.leaves v.Store.leaves

(* ------------------------------------------------------------------ *)
(* Damage.                                                              *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* [verify], [load] and [load_compiled] of one artifact: each must
   return a typed result without raising, and on damage all three the
   same [Guard.Error] (kind, message, context — so the same reason).
   Returns that error, or [None] when all three accept the bytes. *)
let open_all what path =
  let attempt name f =
    match f path with
    | Ok _ -> None
    | Error e -> Some e
    | exception e ->
      Alcotest.failf "%s: %s raised %s" what name (Printexc.to_string e)
  in
  let verified =
    attempt "verify" (fun p -> Result.map ignore (Store.verify p))
  in
  let loaded = attempt "load" (fun p -> Result.map ignore (Store.load p)) in
  let compiled =
    attempt "load_compiled" (fun p -> Result.map ignore (Store.load_compiled p))
  in
  if not (verified = loaded && loaded = compiled) then
    Alcotest.failf "%s: verify/load/load_compiled disagree: %s | %s | %s" what
      (Option.fold ~none:"ok" ~some:Guard.Error.to_string verified)
      (Option.fold ~none:"ok" ~some:Guard.Error.to_string loaded)
      (Option.fold ~none:"ok" ~some:Guard.Error.to_string compiled);
  compiled

(* Every single-byte mutation must be caught by verify, load and
   load_compiled alike — as the same classified error, never an
   exception, never an Ok.  The fuzz artifact is a heavily collapsed
   model: a few hundred bytes, so the sweep is exhaustive yet cheap (the
   format is identical at any size). *)
let test_corruption_fuzz () =
  let path, _, _ = save_small ~max_size:16 "fuzz" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let original = read_file path in
  let hurt = temp_path "fuzz_hurt" ".cfpm" in
  Fun.protect ~finally:(fun () -> cleanup hurt) @@ fun () ->
  let n = String.length original in
  for i = 0 to n - 1 do
    let b = Bytes.of_string original in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xA5));
    write_file hurt (Bytes.to_string b);
    match open_all (Printf.sprintf "byte %d" i) hurt with
    | None -> Alcotest.failf "byte %d of %d: corruption not detected" i n
    | Some e -> (
      match Store.reason e with
      | Some ("corrupt" | "truncated" | "version-skew") -> ()
      | Some r -> Alcotest.failf "byte %d: unexpected reason %s" i r
      | None -> Alcotest.failf "byte %d: unclassified error" i)
  done

(* Every strict prefix must be rejected — the END terminator means a
   complete file is distinguishable from any truncation. *)
let test_truncation_fuzz () =
  let path, _, _ = save_small ~max_size:16 "trunc" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let original = read_file path in
  let cut = temp_path "trunc_cut" ".cfpm" in
  Fun.protect ~finally:(fun () -> cleanup cut) @@ fun () ->
  let n = String.length original in
  for len = 0 to n - 1 do
    write_file cut (String.sub original 0 len);
    match open_all (Printf.sprintf "prefix %d" len) cut with
    | None -> Alcotest.failf "prefix %d of %d verified" len n
    | Some e -> (
      match Store.reason e with
      | Some _ -> ()
      | None -> Alcotest.failf "prefix %d: unclassified error" len)
  done

let test_reason_classes () =
  let path, _, _ = save_small ~max_size:16 "classes" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let original = read_file path in
  let mutate i v =
    let b = Bytes.of_string original in
    Bytes.set b i (Char.chr v);
    let p = temp_path "classes_mut" ".cfpm" in
    write_file p (Bytes.to_string b);
    p
  in
  let reason_at i v =
    let p = mutate i v in
    Fun.protect ~finally:(fun () -> cleanup p) @@ fun () ->
    match open_all (Printf.sprintf "mutation at %d" i) p with
    | None -> Alcotest.failf "mutation at %d verified" i
    | Some e -> Store.reason e
  in
  (* magic byte -> version-skew *)
  Alcotest.(check (option string))
    "magic" (Some "version-skew") (reason_at 0 (Char.code 'X'));
  (* version word (offset 8, big-endian) -> version-skew *)
  Alcotest.(check (option string))
    "version" (Some "version-skew") (reason_at 11 99);
  (* a payload byte past the section headers -> corrupt *)
  Alcotest.(check (option string))
    "payload" (Some "corrupt")
    (reason_at (String.length original / 2) 0x55);
  (* truncation -> truncated *)
  let cut = temp_path "classes_cut" ".cfpm" in
  Fun.protect ~finally:(fun () -> cleanup cut) @@ fun () ->
  write_file cut (String.sub original 0 (String.length original - 5));
  match open_all "truncation" cut with
  | None -> Alcotest.fail "truncated artifact verified"
  | Some e ->
    Alcotest.(check (option string))
      "truncated" (Some "truncated") (Store.reason e)

(* HEAD stores exactness twice: the [exact] member and
   [stats.approx_calls = 0].  A header lacking either, or where they
   disagree, is corrupt through every entry point, so no crafted header
   can make [worst add] claim an optimum the rebuilt model would not. *)
let with_head original f =
  let len = Int32.to_int (String.get_int32_be original 16) land 0xFFFFFFFF in
  let head =
    match Json.of_string (String.sub original 20 len) with
    | Ok j -> j
    | Error e -> Alcotest.failf "stored HEAD does not parse: %s" e
  in
  let payload = Json.to_string ~pretty:false (f head) in
  let framed = Buffer.create 64 in
  Buffer.add_string framed "HEAD";
  Buffer.add_int32_be framed (Int32.of_int (String.length payload));
  Buffer.add_string framed payload;
  let framed = Buffer.contents framed in
  let crc = Buffer.create 4 in
  Buffer.add_int32_be crc (Int32.of_int (Journal.crc32 framed));
  String.sub original 0 12 ^ framed ^ Buffer.contents crc
  ^ String.sub original (24 + len) (String.length original - 24 - len)

let set_member k v = function
  | Json.Obj l ->
    Json.Obj
      (List.filter_map
         (fun (k', v') ->
           if k' <> k then Some (k', v') else Option.map (fun v -> (k, v)) v)
         l)
  | j -> j

let set_stat k v = function
  | Json.Obj l ->
    Json.Obj
      (List.map
         (fun (k', s) -> if k' = "stats" then (k', set_member k v s) else (k', s))
         l)
  | j -> j

let test_exactness_one_source () =
  let exact_path, _, _ = save_small "exact_src" in
  let approx_path, _, approx_meta = save_small ~max_size:6 "approx_src" in
  Fun.protect ~finally:(fun () -> cleanup exact_path; cleanup approx_path)
  @@ fun () ->
  Alcotest.(check bool) "collapsed model has approx calls" true
    (approx_meta.Store.stats.approx_calls > 0);
  let exact = read_file exact_path and approx = read_file approx_path in
  let crafted = temp_path "crafted" ".cfpm" in
  Fun.protect ~finally:(fun () -> cleanup crafted) @@ fun () ->
  let outcome what bytes =
    write_file crafted bytes;
    open_all what crafted
  in
  (* the re-framing itself is faithful *)
  (match outcome "re-framed" (with_head exact Fun.id) with
  | None -> ()
  | Some e ->
    Alcotest.failf "re-framed HEAD rejected: %s" (Guard.Error.to_string e));
  List.iter
    (fun (what, bytes) ->
      match outcome what bytes with
      | None -> Alcotest.failf "%s: header accepted" what
      | Some e ->
        Alcotest.(check (option string)) (what ^ ": reason") (Some "corrupt")
          (Store.reason e);
        Alcotest.(check (option string)) (what ^ ": section") (Some "HEAD")
          (Guard.Error.context_value e "section"))
    [
      ( "approximate model claiming exact",
        with_head approx (set_member "exact" (Some (Json.Bool true))) );
      ( "exact model claiming approximate",
        with_head exact (set_member "exact" (Some (Json.Bool false))) );
      ( "exact model with approx calls",
        with_head exact (set_stat "approx_calls" (Some (Json.Int 2))) );
      ("no exact member", with_head exact (set_member "exact" None));
      ( "mistyped exact member",
        with_head exact (set_member "exact" (Some (Json.Int 1))) );
      ("no approx_calls stat", with_head approx (set_stat "approx_calls" None));
    ]

let test_save_validation () =
  let model = Powermodel.Model.build (small_circuit ()) in
  let path = temp_path "badsp" ".cfpm" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  (match Store.save ~defaults:(1.5, 0.5) ~path model with
  | Ok _ -> Alcotest.fail "sp=1.5 accepted"
  | Error e ->
    Alcotest.(check string)
      "kind" "validation"
      (Guard.Error.kind_name e.Guard.Error.kind));
  Alcotest.(check bool) "nothing written" false (Sys.file_exists path)

let test_load_missing () =
  match Store.load "/nonexistent/cfpm/artifact.cfpm" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent artifact"
  | Error e ->
    Alcotest.(check string)
      "kind" "resource"
      (Guard.Error.kind_name e.Guard.Error.kind);
    Alcotest.(check (option string)) "no reason" None (Store.reason e)

(* QCheck: random circuits of the suite-independent generators survive
   the round trip with bit-identical batch evaluation. *)
let qcheck_round_trip =
  QCheck.Test.make ~count:10 ~name:"store round trip (random adders)"
    QCheck.(pair (int_range 2 4) (int_range 0 1000))
    (fun (bits, seed) ->
      let c = Circuits.Adder.circuit ~bits in
      let model = Powermodel.Model.build c in
      let path = temp_path "qcheck" ".cfpm" in
      Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
      match Store.save ~path model with
      | Error e -> QCheck.Test.fail_report (Guard.Error.to_string e)
      | Ok _ -> (
        match Store.load path with
        | Error e -> QCheck.Test.fail_report (Guard.Error.to_string e)
        | Ok loaded ->
          let inputs = model.Powermodel.Model.inputs in
          let compiled = Powermodel.Model.compile model in
          let pairs = random_pairs ~inputs ~n:50 seed in
          Array.for_all
            (fun (x_i, x_f) ->
              Int64.equal
                (Int64.bits_of_float
                   (Powermodel.Model.switched_capacitance_compiled compiled
                      ~x_i ~x_f))
                (Int64.bits_of_float
                   (Powermodel.Model.switched_capacitance_compiled
                      loaded.Store.compiled ~x_i ~x_f)))
            pairs))

let suite =
  [
    Alcotest.test_case "round trip across reorder policies" `Quick
      test_round_trip_policies;
    Alcotest.test_case "round trip jobs=1 vs jobs=4" `Quick
      test_round_trip_jobs;
    Alcotest.test_case "round trip of an approximate model" `Quick
      test_round_trip_approximate;
    Alcotest.test_case "compiled load answers as the fresh build" `Quick
      test_compiled_load_matches_fresh;
    Alcotest.test_case "exactness has one checked source" `Quick
      test_exactness_one_source;
    Alcotest.test_case "verify reports the saved metadata" `Quick
      test_verify_ok;
    Alcotest.test_case "every single-byte corruption is caught" `Slow
      test_corruption_fuzz;
    Alcotest.test_case "every truncation is caught" `Slow
      test_truncation_fuzz;
    Alcotest.test_case "failure reasons classify" `Quick test_reason_classes;
    Alcotest.test_case "save validates defaults" `Quick test_save_validation;
    Alcotest.test_case "loading a missing artifact" `Quick test_load_missing;
    QCheck_alcotest.to_alcotest qcheck_round_trip;
  ]

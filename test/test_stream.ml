(* Streaming telemetry: weight schedules, mergeable online statistics
   (jobs-independence as byte-identity), drift hysteresis, checkpoint
   round trips, ingest backpressure, fault-injected pipelines and the
   SIGKILL + torn-tail + resume chaos test. *)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Guard.Error.to_string e)

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error (e : Guard.Error.t) -> e

(* ---- weight schedules ---- *)

let weight_schedules () =
  let open Stream.Weight in
  Util.check_close "equal n=1" 1.0 (at Equal ~n:1);
  Util.check_close "equal n=4" 0.25 (at Equal ~n:4);
  Util.check_close "exp n=1" 1.0 (at (Exponential 0.1) ~n:1);
  Util.check_close "exp n=9" 0.1 (at (Exponential 0.1) ~n:9);
  Util.check_close "bounded early" 0.5 (at (Bounded (Equal, 0.05)) ~n:2);
  Util.check_close "bounded floor" 0.05 (at (Bounded (Equal, 0.05)) ~n:1000);
  Util.check_close "scaled" 0.125 (at (Scaled (Equal, 0.5)) ~n:4);
  List.iter
    (fun w ->
      match of_string (to_string w) with
      | Ok w' when w' = w -> ()
      | Ok w' ->
        Alcotest.failf "roundtrip %s reparsed as %s" (to_string w)
          (to_string w')
      | Error e ->
        Alcotest.failf "roundtrip %s: %s" (to_string w)
          (Guard.Error.to_string e))
    [
      Equal;
      Exponential 0.25;
      Bounded (Exponential 0.25, 0.01);
      Scaled (Bounded (Equal, 0.1), 0.5);
    ];
  List.iter
    (fun s ->
      match of_string s with
      | Error _ -> ()
      | Ok w -> Alcotest.failf "%S parsed as %s" s (to_string w))
    [ "exp:0"; "exp:1.5"; "bounded(equal)"; "nonsense"; "scaled(equal,-1)" ]

(* The bulk step fill equals [at] bit for bit, from any start. *)
let weight_fill_matches_at () =
  let open Stream.Weight in
  let pos = 7 and len = 513 in
  List.iter
    (fun w ->
      List.iter
        (fun n0 ->
          let dst = Array.make (pos + len + 1) nan in
          fill w ~n0 dst ~pos ~len;
          for i = 0 to len - 1 do
            if Int64.bits_of_float dst.(pos + i) <> Int64.bits_of_float (at w ~n:(n0 + i)) then
              Alcotest.failf "%s: fill at n=%d gave %h, at gives %h" (to_string w) (n0 + i)
                dst.(pos + i)
                (at w ~n:(n0 + i))
          done;
          Alcotest.(check bool) "outside the run untouched" true
            (Float.is_nan dst.(pos - 1) && Float.is_nan dst.(pos + len)))
        [ 1; 2; 512; 1_000_001 ])
    [
      Equal;
      Exponential 0.25;
      Exponential 1.0;
      Bounded (Equal, 0.05);
      Bounded (Exponential 0.01, 0.3);
      Scaled (Equal, 0.5);
      Scaled (Bounded (Equal, 0.1), 0.5);
      Bounded (Scaled (Exponential 0.7, 0.9), 0.2);
    ];
  Alcotest.check_raises "n0 < 1" (Invalid_argument "Weight.fill: n0 must be >= 1") (fun () ->
      fill Equal ~n0:0 (Array.make 4 0.0) ~pos:0 ~len:1);
  Alcotest.check_raises "run past the end" (Invalid_argument "Weight.fill: run outside the array")
    (fun () -> fill Equal ~n0:1 (Array.make 4 0.0) ~pos:2 ~len:3)

(* ---- mergeable statistics ---- *)

let obs_bits = 3

(* one packed fold; each vector after the first brings the power of
   the transition into it *)
let of_obs l =
  let t = Stream.Stats.create ~bits:obs_bits () in
  let block = Stimulus.Block.of_bools ~width:obs_bits (Array.of_list (List.map fst l)) in
  let power = match l with [] -> [||] | _ :: rest -> Array.of_list (List.map snd rest) in
  Stream.Stats.consume_block ~power t block ~first:0;
  t

let obs_arbitrary =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d obs>" (List.length l))
    QCheck.Gen.(
      list_size (int_range 0 40)
        (pair
           (array_size (return obs_bits) bool)
           (float_bound_inclusive 10.0)))

let stats_merge_associative =
  Util.qtest ~count:300 "merge is associative"
    (QCheck.triple obs_arbitrary obs_arbitrary obs_arbitrary)
    (fun (la, lb, lc) ->
      let open Stream.Stats in
      let left = merge (merge (of_obs la) (of_obs lb)) (of_obs lc) in
      let right = merge (of_obs la) (merge (of_obs lb) (of_obs lc)) in
      vectors left = vectors right
      && transitions left = transitions right
      && power_count left = power_count right
      && sp left = sp right
      && st left = st right
      && power_min left = power_min right
      && power_max left = power_max right
      && Util.close (power_mean left) (power_mean right)
      && Util.close (power_variance left) (power_variance right)
      && Util.close (weighted_power_mean left) (weighted_power_mean right))

let stats_merge_commutative =
  Util.qtest ~count:300
    "order-independent members merge commutatively, bit for bit"
    (QCheck.pair obs_arbitrary obs_arbitrary)
    (fun (la, lb) ->
      let open Stream.Stats in
      let ab = merge (of_obs la) (of_obs lb) in
      let ba = merge (of_obs lb) (of_obs la) in
      vectors ab = vectors ba
      && transitions ab = transitions ba
      && power_count ab = power_count ba
      && power_mean ab = power_mean ba
      && power_variance ab = power_variance ba
      && power_min ab = power_min ba
      && power_max ab = power_max ba)

(* a cheap deterministic stand-in for the compiled model lookup *)
let fake_power ~x_i ~x_f =
  let acc = ref 0.0 in
  Array.iteri
    (fun i b -> if b <> x_f.(i) then acc := !acc +. (1.5 *. float_of_int (i + 1)))
    x_i;
  !acc

let consume_jobs_identity () =
  let bits = 5 in
  let prng = Stimulus.Prng.create 11 in
  let vectors =
    Stimulus.Generator.sequence prng ~bits ~length:2600 ~sp:0.6 ~st:0.3
  in
  let run jobs weight =
    let t = Stream.Stats.create ~weight ~bits () in
    Stream.Stats.consume ~jobs ~power:fake_power t vectors;
    Json.to_string (Stream.Stats.snapshot_json t)
  in
  Alcotest.(check string)
    "equal weight, jobs 1 = jobs 4" (run 1 Stream.Weight.Equal)
    (run 4 Stream.Weight.Equal);
  Alcotest.(check string)
    "exponential weight, jobs 1 = jobs 3"
    (run 1 (Stream.Weight.Exponential 0.05))
    (run 3 (Stream.Weight.Exponential 0.05));
  (* chunked consumption at a shard-aligned seam (the only seam the
     pipeline ever flushes at) matches one-shot consumption *)
  let chunked =
    let t = Stream.Stats.create ~bits () in
    let split = 3 * Stream.Stats.shard_block in
    Stream.Stats.consume ~jobs:2 ~power:fake_power t
      (Array.sub vectors 0 split);
    Stream.Stats.consume ~jobs:2 ~power:fake_power t
      (Array.sub vectors split (Array.length vectors - split));
    Json.to_string (Stream.Stats.snapshot_json t)
  in
  Alcotest.(check string) "chunked = one-shot" (run 1 Stream.Weight.Equal)
    chunked;
  (* the packed fold equals the per-vector reference, counts and float
     bits alike *)
  let seq = Stream_ref.Stats.create ~bits () in
  Stream_ref.Stats.consume ~power:fake_power seq vectors;
  let par = Stream.Stats.create ~bits () in
  Stream.Stats.consume ~jobs:4 ~power:fake_power par vectors;
  Alcotest.(check string) "packed fold = per-vector reference"
    (Json.to_string (Stream_ref.Stats.to_json seq))
    (Json.to_string (Stream.Stats.to_json par))

let stats_checkpoint_roundtrip () =
  let bits = 4 in
  let prng = Stimulus.Prng.create 23 in
  let vectors =
    Stimulus.Generator.sequence prng ~bits ~length:700 ~sp:0.3 ~st:0.2
  in
  let t = Stream.Stats.create ~weight:(Stream.Weight.Exponential 0.07) ~bits () in
  Stream.Stats.consume ~jobs:2 ~power:fake_power t vectors;
  let bytes = Json.to_string (Stream.Stats.to_json t) in
  let parsed =
    match Json.of_string bytes with
    | Ok j -> j
    | Error e -> Alcotest.failf "reparse: %s" e
  in
  let restored = ok_or_fail "stats of_json" (Stream.Stats.of_json parsed) in
  Alcotest.(check string) "bit-exact state round trip" bytes
    (Json.to_string (Stream.Stats.to_json restored));
  (* the restored estimator continues identically *)
  let more =
    Stimulus.Generator.sequence (Stimulus.Prng.create 29) ~bits ~length:600
      ~sp:0.7 ~st:0.4
  in
  Stream.Stats.consume ~jobs:1 ~power:fake_power t more;
  Stream.Stats.consume ~jobs:3 ~power:fake_power restored more;
  Alcotest.(check string) "continuation identical"
    (Json.to_string (Stream.Stats.snapshot_json t))
    (Json.to_string (Stream.Stats.snapshot_json restored));
  (* empty estimator: non-finite extrema survive the round trip *)
  let empty = Stream.Stats.create ~bits () in
  let empty' =
    ok_or_fail "empty of_json"
      (Stream.Stats.of_json
         (match Json.of_string (Json.to_string (Stream.Stats.to_json empty)) with
         | Ok j -> j
         | Error e -> Alcotest.failf "empty reparse: %s" e))
  in
  Alcotest.(check bool) "min sentinel" true
    (Stream.Stats.power_min empty' = infinity);
  Alcotest.(check bool) "max sentinel" true
    (Stream.Stats.power_max empty' = neg_infinity)

(* ---- drift detection ---- *)

let drift_cfg =
  { Stream.Drift.window = 4; min_samples = 2; high = 0.5; low = 0.25 }

let const_vec bits b = Array.make bits b

let drift_fires_once_per_regime () =
  let bits = 4 in
  let t = Stream.Drift.create ~config:drift_cfg ~bits () in
  let feed b n =
    let events = ref 0 in
    for _ = 1 to n do
      match Stream.Drift.observe t (const_vec bits b) with
      | Some _ -> incr events
      | None -> ()
    done;
    !events
  in
  (* first window becomes the reference, no event *)
  Alcotest.(check int) "reference window" 0 (feed false 4);
  (* regime change: exactly one event across many steady windows *)
  let fired = feed true 40 in
  Alcotest.(check int) "one event per regime change" 1 fired;
  (* the detector re-armed on the steady windows (distance 0 <= low) *)
  Alcotest.(check bool) "re-armed" true (Stream.Drift.armed t);
  Alcotest.(check int) "event counter" 1 (Stream.Drift.events t)

let drift_min_samples_guard () =
  let bits = 4 in
  let t = Stream.Drift.create ~config:drift_cfg ~bits () in
  ignore
    (List.init 4 (fun _ -> Stream.Drift.observe t (const_vec bits false)));
  (* one vector of a wildly different regime: below min_samples, the
     final partial window is never judged *)
  (match Stream.Drift.observe t (const_vec bits true) with
  | Some _ -> Alcotest.fail "event from an unjudged window"
  | None -> ());
  (match Stream.Drift.flush t with
  | Some _ -> Alcotest.fail "flush judged a window below min_samples"
  | None -> ());
  Alcotest.(check int) "no events" 0 (Stream.Drift.events t)

let drift_below_high_never_fires () =
  let bits = 8 in
  let t = Stream.Drift.create ~config:drift_cfg ~bits () in
  (* alternating windows toggling one input out of eight: distance 1/8,
     well under high = 0.5 *)
  let vec b = Array.init bits (fun i -> i = 0 && b) in
  for w = 0 to 19 do
    for _ = 1 to 4 do
      match Stream.Drift.observe t (vec (w mod 2 = 0)) with
      | Some _ -> Alcotest.fail "fired below the trigger distance"
      | None -> ()
    done
  done;
  Alcotest.(check int) "no events" 0 (Stream.Drift.events t)

let drift_checkpoint_roundtrip () =
  let bits = 4 in
  let t = Stream.Drift.create ~config:drift_cfg ~bits () in
  let feed state b n =
    for _ = 1 to n do
      ignore (Stream.Drift.observe state (const_vec bits b))
    done
  in
  feed t false 4;
  feed t true 42;
  (* mid-window state (2 vectors into the current window) *)
  feed t true 2;
  let bytes = Json.to_string (Stream.Drift.to_json t) in
  let restored =
    ok_or_fail "drift of_json"
      (Stream.Drift.of_json
         (match Json.of_string bytes with
         | Ok j -> j
         | Error e -> Alcotest.failf "reparse: %s" e))
  in
  Alcotest.(check string) "bit-exact round trip" bytes
    (Json.to_string (Stream.Drift.to_json restored));
  (* both copies agree on the future *)
  feed t false 6;
  feed restored false 6;
  Alcotest.(check string) "identical continuation"
    (Json.to_string (Stream.Drift.to_json t))
    (Json.to_string (Stream.Drift.to_json restored))

(* ---- ingest queue ---- *)

let ingest_shed () =
  let q = Stream.Ingest.create ~capacity:2 Stream.Ingest.Shed in
  ok_or_fail "push 1" (Stream.Ingest.push q 1);
  ok_or_fail "push 2" (Stream.Ingest.push q 2);
  let e = expect_error "push over capacity" (Stream.Ingest.push q 3) in
  Alcotest.(check bool) "typed overload" true
    (Guard.Error.context_value e "reason" = Some "overloaded");
  Alcotest.(check int) "shed counted" 1 (Stream.Ingest.sheds q);
  Alcotest.(check bool) "pop 1" true (Stream.Ingest.pop q = Some 1);
  Stream.Ingest.close q;
  (* close-to-drain: the backlog still comes out, then None *)
  Alcotest.(check bool) "drain 2" true (Stream.Ingest.pop q = Some 2);
  Alcotest.(check bool) "drained" true (Stream.Ingest.pop q = None);
  let e = expect_error "push after close" (Stream.Ingest.push q 4) in
  Alcotest.(check bool) "closed push is validation" true
    (e.Guard.Error.kind = Guard.Error.Validation)

let ingest_block_backpressure () =
  let q = Stream.Ingest.create ~capacity:1 Stream.Ingest.Block in
  let pushed = Atomic.make 0 in
  let producer =
    Thread.create
      (fun () ->
        for i = 1 to 50 do
          ok_or_fail "blocking push" (Stream.Ingest.push q i);
          Atomic.incr pushed
        done;
        Stream.Ingest.close q)
      ()
  in
  let popped = ref [] in
  let rec drain () =
    match Stream.Ingest.pop q with
    | Some v ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Thread.join producer;
  Alcotest.(check int) "all pushed" 50 (Atomic.get pushed);
  Alcotest.(check (list int)) "lossless in order" (List.init 50 (fun i -> i + 1))
    (List.rev !popped);
  Alcotest.(check int) "no sheds under Block" 0 (Stream.Ingest.sheds q)

(* ---- refit ---- *)

let refit_recovers_coefficients () =
  let refit = Stream.Refit.create ~forget:0.0 ~ridge:1e-9 ~features:3 () in
  let prng = Stimulus.Prng.create 5 in
  let truth = [| 2.0; -1.0; 0.5 |] in
  for _ = 1 to 200 do
    let row =
      [|
        (if Stimulus.Prng.bool prng ~p:0.5 then 1.0 else 0.0);
        (if Stimulus.Prng.bool prng ~p:0.5 then 1.0 else 0.0);
        1.0;
      |]
    in
    let value =
      (row.(0) *. truth.(0)) +. (row.(1) *. truth.(1)) +. (row.(2) *. truth.(2))
    in
    Stream.Refit.observe refit ~row ~value
  done;
  let coeffs = Stream.Refit.fit refit in
  Array.iteri
    (fun i c -> Util.check_close ~eps:1e-5 (Printf.sprintf "coeff %d" i) truth.(i) c)
    coeffs;
  Util.check_close ~eps:1e-4 "rms of the truth" 0.0
    (Stream.Refit.rms_recent refit coeffs);
  let bytes = Json.to_string (Stream.Refit.to_json refit) in
  let restored =
    ok_or_fail "refit of_json"
      (Stream.Refit.of_json
         (match Json.of_string bytes with
         | Ok j -> j
         | Error e -> Alcotest.failf "reparse: %s" e))
  in
  Alcotest.(check string) "bit-exact round trip" bytes
    (Json.to_string (Stream.Refit.to_json restored))

(* ---- registry ---- *)

let registry_snapshot () =
  Stream.Registry.publish "b-stream" (fun () -> Json.Int 2);
  Stream.Registry.publish "a-stream" (fun () -> Json.Int 1);
  Fun.protect
    ~finally:(fun () ->
      Stream.Registry.unpublish "a-stream";
      Stream.Registry.unpublish "b-stream")
  @@ fun () ->
  Alcotest.(check (list string)) "sorted names" [ "a-stream"; "b-stream" ]
    (Stream.Registry.names ());
  Alcotest.(check string) "snapshot"
    {|{"streams":{"a-stream":1,"b-stream":2}}|}
    (Json.to_string ~pretty:false (Stream.Registry.snapshot ()))

(* ---- the pipeline ---- *)

(* One small circuit and model shared by the pipeline tests. *)
let fixture =
  lazy
    (let circuit = Util.small_random_circuit 3 in
     let model = Powermodel.Model.build circuit in
     (circuit, model, Netlist.Circuit.input_count circuit))

let phases =
  [
    { Stream.Source.sp = 0.5; st = 0.1; count = 3072 };
    { Stream.Source.sp = 0.9; st = 0.5; count = 3072 };
  ]

let test_drift_cfg =
  { Stream.Drift.window = 512; min_samples = 128; high = 0.3; low = 0.15 }

let pipeline_cfg ?checkpoint ?(resume = false) ?(throttle = 0.0) jobs =
  {
    Stream.Pipeline.default_config with
    drift = test_drift_cfg;
    jobs = Some jobs;
    checkpoint;
    checkpoint_every = 2048;
    resume;
    throttle;
  }

let fresh_source () =
  let _, _, bits = Lazy.force fixture in
  ok_or_fail "source" (Stream.Source.generator ~seed:7 ~bits phases)

let run_pipeline cfg =
  let _, model, _ = Lazy.force fixture in
  ok_or_fail "pipeline"
    (Stream.Pipeline.run cfg ~model ~source:(fresh_source ()))

let reference_bytes =
  lazy (Json.to_string (Stream.Pipeline.stats_json (run_pipeline (pipeline_cfg 1))))

let pipeline_detects_drift () =
  let o = run_pipeline (pipeline_cfg 1) in
  (match o.Stream.Pipeline.events with
  | [ ev ] ->
    (* the phase switch at vector 3072 is caught by the next full window *)
    Alcotest.(check bool) "fired after the switch" true
      (ev.Stream.Pipeline.drift.Stream.Drift.at > 3072
      && ev.Stream.Pipeline.drift.Stream.Drift.at <= 4096);
    Alcotest.(check bool) "refit happened" true
      (ev.Stream.Pipeline.refit_samples > 0);
    Alcotest.(check bool) "refit reduced the Lin error" true
      (ev.Stream.Pipeline.lin_rms_after < ev.Stream.Pipeline.lin_rms_before)
  | evs -> Alcotest.failf "expected exactly one drift event, got %d" (List.length evs));
  Alcotest.(check int) "nothing quarantined" 0 o.Stream.Pipeline.quarantined;
  Alcotest.(check bool) "ran to completion" true
    (o.Stream.Pipeline.stopped = None)

let pipeline_jobs_identity () =
  let o4 = run_pipeline (pipeline_cfg 4) in
  Alcotest.(check string) "jobs 4 byte-identical" (Lazy.force reference_bytes)
    (Json.to_string (Stream.Pipeline.stats_json o4))

let pipeline_quarantines_malformed () =
  let _, model, bits = Lazy.force fixture in
  let path = Filename.temp_file "cfpm_stream_vecs" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  let prng = Stimulus.Prng.create 3 in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to 299 do
        if i mod 50 = 7 then output_string oc "not-a-vector\n"
        else begin
          for _ = 1 to bits do
            output_char oc (if Stimulus.Prng.bool prng ~p:0.5 then '1' else '0')
          done;
          output_char oc '\n'
        end
      done);
  let source = ok_or_fail "file source" (Stream.Source.of_file ~path ~bits) in
  let o =
    ok_or_fail "pipeline"
      (Stream.Pipeline.run (pipeline_cfg 1) ~model ~source)
  in
  Alcotest.(check int) "malformed lines quarantined" 6
    o.Stream.Pipeline.quarantined;
  Alcotest.(check int) "vectors counted" 294
    (Stream.Stats.vectors o.Stream.Pipeline.stats)

(* Records cross the ingest queue in blocks of [Stats.shard_block], but
   flushes are cut by valid-vector counts: the statistics must not see
   the queue capacity (in vectors, rounded up to whole blocks) or the
   job count.  The file source puts malformed lines on both sides of
   block and flush boundaries and ends on a short block; it is labelled
   at gate level on every third transition and switches regime midway,
   so the drift event's Lin errors depend on every batch label. *)
let pipeline_queue_capacity_identity () =
  let circuit, model, bits = Lazy.force fixture in
  let simulator = Gatesim.Simulator.create circuit in
  let path = Filename.temp_file "cfpm_stream_blocks" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  let block = Stream.Stats.shard_block and quantum = Stream.Pipeline.flush_quantum in
  let malformed =
    [ block - 1; block; (2 * block) + 1; quantum - 2; quantum; quantum + 1; (2 * quantum) + 3 ]
  in
  let records = (2 * quantum) + 700 in
  let prng = Stimulus.Prng.create 11 in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to records - 1 do
        if List.mem i malformed then output_string oc "01x\n"
        else begin
          let p = if i < records / 2 then 0.2 else 0.85 in
          for _ = 1 to bits do
            output_char oc (if Stimulus.Prng.bool prng ~p then '1' else '0')
          done;
          output_char oc '\n'
        end
      done);
  let file_run queue_capacity jobs =
    let source = ok_or_fail "file source" (Stream.Source.of_file ~path ~bits) in
    let cfg = { (pipeline_cfg jobs) with queue_capacity; sim_every = 3 } in
    ok_or_fail "pipeline" (Stream.Pipeline.run ~simulator cfg ~model ~source)
  in
  let file_ref = file_run 4096 1 in
  Alcotest.(check int) "malformed lines quarantined" (List.length malformed)
    file_ref.Stream.Pipeline.quarantined;
  Alcotest.(check bool) "the regime switch fired" true
    (file_ref.Stream.Pipeline.events <> []);
  let file_bytes = Json.to_string (Stream.Pipeline.stats_json file_ref) in
  List.iter
    (fun (queue_capacity, jobs) ->
      let what = Printf.sprintf "queue %d, jobs %d" queue_capacity jobs in
      let gen =
        run_pipeline { (pipeline_cfg jobs) with queue_capacity }
      in
      Alcotest.(check string) (what ^ ": generator") (Lazy.force reference_bytes)
        (Json.to_string (Stream.Pipeline.stats_json gen));
      Alcotest.(check string) (what ^ ": file") file_bytes
        (Json.to_string
           (Stream.Pipeline.stats_json (file_run queue_capacity jobs))))
    [ (1, 1); (1, 2); (3, 1); (3, 2); (4096, 1); (4096, 2) ]

(* The flush's batch labels must feed the refit exactly what a
   transition-by-transition walk with scalar gate-level labels would:
   replay the first event's prefix of the stream by hand and compare the
   sample count and both Lin errors bit for bit.  [sim_every] 1 and 23
   both sample the transition across the seam at vector 2048. *)
let pipeline_batch_labels_match_scalar_walk () =
  let circuit, model, bits = Lazy.force fixture in
  let simulator = Gatesim.Simulator.create circuit in
  let scalar u v =
    Gatesim.Simulator.switched_capacitance_of_values simulator
      (Gatesim.Simulator.eval simulator u)
      (Gatesim.Simulator.eval simulator v)
  in
  List.iter
    (fun sim_every ->
      let cfg = { (pipeline_cfg 1) with sim_every } in
      let o =
        ok_or_fail "pipeline"
          (Stream.Pipeline.run ~simulator cfg ~model ~source:(fresh_source ()))
      in
      match o.Stream.Pipeline.events with
      | [] -> Alcotest.fail "no drift event"
      | ev :: _ ->
        let at = ev.Stream.Pipeline.drift.Stream.Drift.at in
        let source = fresh_source () in
        let refit = Stream.Refit.create ~features:(bits + 1) () in
        let prev = ref None in
        for i = 0 to at - 1 do
          match (Stream.Source.next source, !prev) with
          | Some (Stream.Source.Vector v), p ->
            (match p with
            | Some u when (i - 1) mod sim_every = 0 ->
              Stream.Refit.observe refit
                ~row:(Powermodel.Baselines.transition_features u v)
                ~value:(scalar u v)
            | _ -> ());
            prev := Some v
          | _ -> Alcotest.fail "source ended early"
        done;
        let what = Printf.sprintf "sim_every %d" sim_every in
        Alcotest.(check int) (what ^ ": samples") (Stream.Refit.count refit)
          ev.Stream.Pipeline.refit_samples;
        let same name expected got =
          Alcotest.(check int64) (what ^ ": " ^ name)
            (Int64.bits_of_float expected) (Int64.bits_of_float got)
        in
        same "Lin rms before"
          (Stream.Refit.rms_recent refit (Array.make (bits + 1) 0.0))
          ev.Stream.Pipeline.lin_rms_before;
        same "Lin rms after"
          (Stream.Refit.rms_recent refit (Stream.Refit.fit refit))
          ev.Stream.Pipeline.lin_rms_after)
    [ 1; 23 ]

let pipeline_rejects_empty_queue () =
  let _, model, _ = Lazy.force fixture in
  List.iter
    (fun queue_capacity ->
      let e =
        expect_error "queue capacity"
          (Stream.Pipeline.run
             { (pipeline_cfg 1) with queue_capacity }
             ~model ~source:(fresh_source ()))
      in
      Alcotest.(check bool) "validation error" true
        (e.Guard.Error.kind = Guard.Error.Validation))
    [ 0; -600 ]

(* Under [Shed] a full queue drops a whole block; the count is in
   records, so every record the source emitted is folded, shed or
   quarantined. *)
let pipeline_shed_counts_records () =
  let cfg =
    {
      (pipeline_cfg ~throttle:0.005 1) with
      policy = Stream.Ingest.Shed;
      queue_capacity = 1;
    }
  in
  let o = run_pipeline cfg in
  Alcotest.(check bool) "ended normally" true (o.Stream.Pipeline.stopped = None);
  Alcotest.(check bool) "something was shed" true (o.Stream.Pipeline.sheds > 0);
  Alcotest.(check int) "vectors + sheds + quarantined = records"
    (List.fold_left (fun n p -> n + p.Stream.Source.count) 0 phases)
    (Stream.Stats.vectors o.Stream.Pipeline.stats
    + o.Stream.Pipeline.sheds + o.Stream.Pipeline.quarantined)

let with_fault_spec spec k =
  Guard.Fault.install (ok_or_fail "fault spec" (Guard.Fault.parse spec));
  Fun.protect ~finally:Guard.Fault.clear k

let pipeline_ingest_faults_are_retried () =
  with_fault_spec "stream_ingest:fail:0.5:seed=3" @@ fun () ->
  let o = run_pipeline (pipeline_cfg 2) in
  Alcotest.(check bool) "at least one retry" true
    (o.Stream.Pipeline.ingest_retries >= 1);
  Alcotest.(check bool) "completed despite faults" true
    (o.Stream.Pipeline.stopped = None);
  Alcotest.(check string) "stats identical under retried faults"
    (Lazy.force reference_bytes)
    (Json.to_string (Stream.Pipeline.stats_json o))

let pipeline_drift_faults_skip_never_crash () =
  with_fault_spec "drift_check:fail:1.0" @@ fun () ->
  let o = run_pipeline (pipeline_cfg 1) in
  Alcotest.(check int) "every judgement skipped, no event" 0
    (List.length o.Stream.Pipeline.events);
  Alcotest.(check bool) "skips counted" true
    (o.Stream.Pipeline.drift_skipped >= 12);
  Alcotest.(check bool) "completed" true (o.Stream.Pipeline.stopped = None)

let pipeline_checkpoint_faults_cost_one_interval () =
  let path = Filename.temp_file "cfpm_stream_ckpt" ".jsonl" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  (with_fault_spec "checkpoint_write:fail:1.0" @@ fun () ->
   let o = run_pipeline (pipeline_cfg ~checkpoint:path 1) in
   Alcotest.(check int) "no checkpoint survived" 0 o.Stream.Pipeline.checkpoints;
   Alcotest.(check bool) "failures counted" true
     (o.Stream.Pipeline.checkpoint_failures >= 3);
   Alcotest.(check bool) "the stream outlived them" true
     (o.Stream.Pipeline.stopped = None));
  (* resume against the empty journal: a fresh, identical run *)
  let o = run_pipeline (pipeline_cfg ~checkpoint:path ~resume:true 2) in
  Alcotest.(check int) "nothing to resume from" 0 o.Stream.Pipeline.resumed_from;
  Alcotest.(check string) "identical" (Lazy.force reference_bytes)
    (Json.to_string (Stream.Pipeline.stats_json o))

(* The chaos test: SIGKILL a checkpointed child mid-stream, tear the
   journal tail, resume — the final statistics must be byte-identical to
   the uninterrupted reference.

   [Unix.fork] is off-limits once any domain has ever been spawned (and
   the jobs > 1 tests above spawn plenty), so the child is a re-exec of
   this very test binary: [main.ml] diverts into {!child_main} when
   [CFPM_STREAM_CHILD] is set, runs the throttled checkpointed stream
   and exits without ever reaching alcotest. *)
let child_env_var = "CFPM_STREAM_CHILD"

let child_main path =
  let _, model, _ = Lazy.force fixture in
  (try
     ignore
       (Stream.Pipeline.run
          (pipeline_cfg ~checkpoint:path ~throttle:0.05 1)
          ~model ~source:(fresh_source ()))
   with _ -> ());
  exit 0

let pipeline_sigkill_resume () =
  let path = Filename.temp_file "cfpm_stream_kill" ".jsonl" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  let reference = Lazy.force reference_bytes in
  let env =
    Array.append (Unix.environment ()) [| child_env_var ^ "=" ^ path |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  let journal_lines () =
    try
      In_channel.with_open_bin path (fun ic ->
          let s = In_channel.input_all ic in
          String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s)
    with Sys_error _ -> 0
  in
  (* wait until two checkpoints are durable, then murder the child *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  while journal_lines () < 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "checkpoints appeared" true (journal_lines () >= 2);
  Unix.kill pid Sys.sigkill;
  (match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _, Unix.WEXITED 0 ->
    (* the child beat us to the finish line; resume still must agree *)
    ()
  | _, status ->
    Alcotest.failf "unexpected child status %s"
      (match status with
      | Unix.WEXITED c -> Printf.sprintf "exit %d" c
      | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
      | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s));
  (* tear the journal tail: recovery must drop the half-written record
     and fall back to the last CRC-valid checkpoint *)
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (max 0 (size - 5));
  let o = run_pipeline (pipeline_cfg ~checkpoint:path ~resume:true 4) in
  Alcotest.(check bool) "resumed mid-stream" true
    (o.Stream.Pipeline.resumed_from >= 2048);
  Alcotest.(check string) "byte-identical to the uninterrupted run"
    reference
    (Json.to_string (Stream.Pipeline.stats_json o))

(* ---- pinned bytes ---- *)

let golden_file () =
  let path = if Sys.file_exists "stream.golden" then "stream.golden" else "test/stream.golden" in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Every case reproduces the pinned statistics and checkpoint bytes
   under each job count and queue capacity, and after a resume from
   each checkpoint seam of a truncated journal. *)
let stream_golden_replay () =
  let golden = golden_file () in
  Alcotest.(check (list string)) "jobs 1, queue 4096" golden (Stream_golden.capture ());
  let expect run case what got =
    let key = Printf.sprintf "%s %s " case.Stream_golden.name what in
    match List.find_opt (String.starts_with ~prefix:key) golden with
    | Some line ->
      Alcotest.(check string) (run ^ ": " ^ key)
        (String.sub line (String.length key) (String.length line - String.length key))
        got
    | None -> Alcotest.failf "no golden line %S" key
  in
  let check_run run case r =
    expect run case "stats" r.Stream_golden.stats;
    expect run case "ckpts" r.ckpts
  in
  List.iter
    (fun case ->
      List.iter
        (fun (jobs, queue_capacity) ->
          Stream_golden.with_journal (fun path ->
              check_run
                (Printf.sprintf "jobs %d queue %d" jobs queue_capacity)
                case
                (Stream_golden.run ~jobs ~queue_capacity ~path case)))
        [ (2, 1); (4, 700) ];
      Stream_golden.with_journal (fun path ->
          ignore (Stream_golden.run ~jobs:1 ~queue_capacity:4096 ~path case);
          let total = Stream_golden.keep_lines path max_int in
          let seams = if case.name = "default" then List.init (total - 1) succ else [ 2 ] in
          List.iter
            (fun k ->
              ignore (Stream_golden.run ~jobs:1 ~queue_capacity:4096 ~path case);
              ignore (Stream_golden.keep_lines path k);
              check_run (Printf.sprintf "resumed after %d checkpoints" k) case
                (Stream_golden.run ~resume:true ~jobs:2 ~queue_capacity:1 ~path case))
            seams))
    Stream_golden.cases

(* ---- the packed folds against the per-vector reference ---- *)

(* Ints exactly, floats by their bits. *)
let rec json_same path a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
    if Int64.bits_of_float x <> Int64.bits_of_float y then
      QCheck.Test.fail_reportf "%s: %h <> %h" path x y
  | Json.List xs, Json.List ys when List.length xs = List.length ys ->
    List.iteri (fun i (x, y) -> json_same (Printf.sprintf "%s[%d]" path i) x y)
      (List.combine xs ys)
  | Json.Obj xs, Json.Obj ys when List.map fst xs = List.map fst ys ->
    List.iter2 (fun (k, x) (_, y) -> json_same (path ^ "." ^ k) x y) xs ys
  | _ ->
    if a <> b then
      QCheck.Test.fail_reportf "%s: %s <> %s" path
        (Json.to_string ~pretty:false a) (Json.to_string ~pretty:false b)

let reparse j =
  match Json.of_string (Json.to_string j) with
  | Ok j -> j
  | Error e -> failwith e

type fold_case = {
  width : int;
  chunks : int list;
  jobs : int;
  seam : int;
  window : int;
  min_samples : int;
  seed : int;
}

let fold_case_gen =
  QCheck.Gen.(
    let* width = oneof [ int_range 1 8; int_range 60 66; int_range 120 130 ] in
    let* chunks = list_size (int_range 1 6) (int_range 0 1300) in
    let* jobs = int_range 1 2 in
    let* seam = int_range 0 (List.length chunks) in
    let* window = int_range 2 700 in
    let* min_samples = int_range 2 window in
    let* seed = int_range 0 10_000 in
    return { width; chunks; jobs; seam; window; min_samples; seed })

let print_fold_case c =
  Printf.sprintf "width %d, chunks [%s], jobs %d, seam %d, window %d/%d, seed %d"
    c.width
    (String.concat "; " (List.map string_of_int c.chunks))
    c.jobs c.seam c.window c.min_samples c.seed

let packed_folds_match_reference =
  Util.qtest ~count:40 "packed stats and drift folds equal the per-vector reference"
    (QCheck.make fold_case_gen ~print:print_fold_case)
    (fun c ->
      let prng = Stimulus.Prng.create c.seed in
      let config =
        { Stream.Drift.window = c.window; min_samples = c.min_samples; high = 0.05; low = 0.02 }
      in
      let weight = Stream.Weight.Exponential 0.03 in
      let stats = ref (Stream.Stats.create ~weight ~bits:c.width ()) in
      let drift = ref (Stream.Drift.create ~config ~bits:c.width ()) in
      let rstats = Stream_ref.Stats.create ~weight ~bits:c.width () in
      let rdrift = Stream_ref.Drift.create ~config ~bits:c.width () in
      let events = ref [] and revents = ref [] in
      let prev = ref None in
      List.iteri
        (fun i len ->
          if i = c.seam then begin
            let restore of_json j =
              match of_json (reparse j) with
              | Ok v -> v
              | Error e -> QCheck.Test.fail_reportf "restore: %s" (Guard.Error.to_string e)
            in
            stats := restore Stream.Stats.of_json (Stream.Stats.to_json !stats);
            drift := restore Stream.Drift.of_json (Stream.Drift.to_json !drift)
          end;
          (* a regime per chunk, so windows differ and events fire *)
          let p = Stimulus.Prng.float prng in
          let vectors =
            Array.init len (fun _ -> Array.init c.width (fun _ -> Stimulus.Prng.bool prng ~p))
          in
          let power =
            let from = ref !prev and out = ref [] in
            Array.iter
              (fun v ->
                Option.iter (fun u -> out := fake_power ~x_i:u ~x_f:v :: !out) !from;
                from := Some v)
              vectors;
            Array.of_list (List.rev !out)
          in
          if len > 0 then prev := Some vectors.(len - 1);
          let block = Stimulus.Block.of_bools ~width:c.width vectors in
          Stream.Stats.consume_block ~jobs:c.jobs ~power !stats block ~first:0;
          Stream_ref.Stats.consume ~power:fake_power rstats vectors;
          let k = ref 0 in
          while !k < len do
            let m = Int.min (len - !k) (Stream.Drift.room !drift) in
            (match Stream.Drift.observe_block !drift block ~first:!k ~len:m with
            | Some ev -> events := ev.Stream.Drift.at :: !events
            | None -> ());
            k := !k + m
          done;
          Array.iter
            (fun v ->
              if Stream_ref.Drift.observe rdrift v then
                revents := rdrift.Stream_ref.Drift.seen :: !revents)
            vectors)
        c.chunks;
      json_same "stats" (Stream_ref.Stats.to_json rstats) (Stream.Stats.to_json !stats);
      json_same "drift" (Stream_ref.Drift.to_json rdrift) (Stream.Drift.to_json !drift);
      if !events <> !revents then QCheck.Test.fail_report "drift events differ";
      true)

(* The pipeline's packed power batch against the scalar compiled model:
   the statistics of a stream equal a per-vector fold, in the
   pipeline's flush quanta, whose power is
   [switched_capacitance_compiled] of each transition — at a width of
   one word and at widths spanning two and three. *)
let pipeline_power_matches_scalar_model () =
  List.iter
    (fun width ->
      (* a few gates on inputs either side of the 63-bit word seams *)
      let circuit =
        let open Netlist.Builder in
        let b = create ~name:(Printf.sprintf "wide%d" width) in
        let x = inputs b "x" width in
        let at i = x.(i mod width) in
        let g1 = and2 b (at 62) (at 63) in
        let g2 = xor2 b (at 0) (at (width - 1)) in
        let g3 = or2 b (at 64) (at 126) in
        let g4 = mux2 b ~sel:(at 125) ~if0:g1 ~if1:g2 in
        List.iteri (fun k g -> output b (Printf.sprintf "y%d" k) g) [ g1; g2; g3; g4; not_ b g3 ];
        finish b
      in
      let model = Powermodel.Model.build circuit in
      let compiled = Powermodel.Model.compile model in
      let phases = [ { Stream.Source.sp = 0.4; st = 0.3; count = 5000 } ] in
      let source () = ok_or_fail "source" (Stream.Source.generator ~seed:9 ~bits:width phases) in
      let o =
        ok_or_fail "pipeline"
          (Stream.Pipeline.run { (pipeline_cfg 2) with sim_every = 0 } ~model ~source:(source ()))
      in
      let reference = Stream_ref.Stats.create ~bits:width () in
      let src = source () in
      let rec chunks () =
        let chunk =
          List.filter_map
            (fun _ ->
              match Stream.Source.next src with
              | Some (Stream.Source.Vector v) -> Some v
              | _ -> None)
            (List.init Stream.Pipeline.flush_quantum Fun.id)
        in
        if chunk <> [] then begin
          Stream_ref.Stats.consume
            ~power:(fun ~x_i ~x_f ->
              Powermodel.Model.switched_capacitance_compiled compiled ~x_i ~x_f)
            reference (Array.of_list chunk);
          chunks ()
        end
      in
      chunks ();
      Alcotest.(check string)
        (Printf.sprintf "%d inputs" width)
        (Json.to_string (Stream_ref.Stats.to_json reference))
        (Json.to_string (Stream.Stats.to_json o.Stream.Pipeline.stats)))
    [ 11; 63; 64; 130 ]

(* ---- allocation ---- *)

(* Source, stats and drift move whole blocks: one 2048-vector flush
   allocates a few hundred words, not words per vector. *)
(* The power fold takes its weight steps from a bulk fill: a flush's
   power observations allocate next to nothing on top of its counts. *)
let power_fold_allocation () =
  let bits = 11 and n = Stream.Pipeline.flush_quantum + 1 in
  let source =
    ok_or_fail "source"
      (Stream.Source.generator ~seed:3 ~bits [ { Stream.Source.sp = 0.5; st = 0.2; count = n } ])
  in
  let b = Stream.Source.create_block source ~capacity:n in
  Stream.Source.fill source b;
  let chunk = b.Stream.Source.vectors in
  let power = Array.init n (fun i -> float_of_int (i mod 97)) in
  let words power =
    let stats = Stream.Stats.create ~weight:(Stream.Weight.Bounded (Stream.Weight.Equal, 0.01)) ~bits () in
    Stream.Stats.consume_block ~jobs:1 ?power stats chunk ~first:0;
    let stats = Stream.Stats.create ~weight:(Stream.Weight.Bounded (Stream.Weight.Equal, 0.01)) ~bits () in
    let before = Gc.minor_words () in
    Stream.Stats.consume_block ~jobs:1 ?power stats chunk ~first:0;
    Gc.minor_words () -. before
  in
  let without = words None and with_powers = words (Some power) in
  Alcotest.(check bool)
    (Printf.sprintf "%d vectors: %.0f minor words with powers, %.0f without" n with_powers without)
    true
    (with_powers <= without +. 256.0)

let block_fold_allocation () =
  let bits = 11 in
  let source =
    ok_or_fail "source"
      (Stream.Source.generator ~seed:3 ~bits
         [ { Stream.Source.sp = 0.5; st = 0.2; count = 1_000_000 } ])
  in
  let b = Stream.Source.create_block source ~capacity:Stream.Stats.shard_block in
  let chunk = Stimulus.Block.create ~width:bits ~capacity:Stream.Pipeline.flush_quantum in
  let stats = Stream.Stats.create ~bits () in
  let drift = Stream.Drift.create ~bits () in
  let flush () =
    Stimulus.Block.clear chunk;
    while Stimulus.Block.length chunk < Stream.Pipeline.flush_quantum do
      Stream.Source.fill source b;
      Stimulus.Block.blit ~src:b.Stream.Source.vectors ~src_pos:0 ~dst:chunk
        ~dst_pos:(Stimulus.Block.length chunk)
        ~len:(Stimulus.Block.length b.Stream.Source.vectors)
    done;
    Stream.Stats.consume_block ~jobs:1 stats chunk ~first:0;
    let k = ref 0 in
    while !k < Stream.Pipeline.flush_quantum do
      let m = Int.min (Stream.Pipeline.flush_quantum - !k) (Stream.Drift.room drift) in
      ignore (Stream.Drift.observe_block drift chunk ~first:!k ~len:m);
      k := !k + m
    done
  in
  flush ();
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let one = words flush in
  let four = words (fun () -> for _ = 1 to 4 do flush () done) in
  if one > 1024.0 then
    Alcotest.failf "one flush of %d vectors allocated %.0f minor words"
      Stream.Pipeline.flush_quantum one;
  Alcotest.(check bool)
    (Printf.sprintf "four flushes: %.0f words, one: %.0f" four one)
    true
    (four <= (4.0 *. one) +. 64.0)

(* ---- checkpoints that do not fit ---- *)

let reject what of_json j =
  match of_json j with
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error (e : Guard.Error.t) ->
    Alcotest.(check bool) (what ^ ": parse error") true (e.kind = Guard.Error.Parse)

let rec set_member path v j =
  match (path, j) with
  | [ k ], Json.Obj ms -> Json.Obj (List.map (fun (k', x) -> if k' = k then (k', v) else (k', x)) ms)
  | k :: rest, Json.Obj ms ->
    Json.Obj (List.map (fun (k', x) -> if k' = k then (k', set_member rest v x) else (k', x)) ms)
  | _ -> j

let stats_of_json_checks_vectors () =
  let bits = 5 in
  let t = Stream.Stats.create ~bits () in
  Stream.Stats.consume t
    (Stimulus.Generator.sequence (Stimulus.Prng.create 2) ~bits ~length:40 ~sp:0.5 ~st:0.3);
  let j = reparse (Stream.Stats.to_json t) in
  ignore (ok_or_fail "untouched" (Stream.Stats.of_json j));
  List.iter
    (fun (key, v) ->
      reject (Printf.sprintf "%s = %s" key v) Stream.Stats.of_json
        (set_member [ key ] (Json.String v) j))
    [
      ("first", "0101"); ("first", "010110"); ("last", "01a01"); ("last", "0 101");
      ("first", "");
    ];
  reject "last null on a non-empty estimator" Stream.Stats.of_json
    (set_member [ "last" ] Json.Null j)

let drift_of_json_checks_windows () =
  let bits = 4 in
  let t = Stream.Drift.create ~config:drift_cfg ~bits () in
  List.iter
    (fun b -> ignore (Stream.Drift.observe t (const_vec bits b)))
    [ false; false; false; false; true; true ];
  let j = reparse (Stream.Drift.to_json t) in
  ignore (ok_or_fail "untouched" (Stream.Drift.of_json j));
  let ints n = Json.List (List.init n (fun _ -> Json.Int 0)) in
  List.iter
    (fun (what, path, v) -> reject what Stream.Drift.of_json (set_member path v j))
    [
      ("short last", [ "cur"; "last" ], Json.String "010");
      ("bad last", [ "cur"; "last" ], Json.String "01x0");
      ("missing last", [ "cur"; "last" ], Json.Null);
      ("short toggles", [ "cur"; "toggles" ], ints 3);
      ("long ones", [ "cur"; "ones" ], ints 5);
      ("reference ones", [ "reference"; "ones" ], ints 3);
      ("reference toggles", [ "reference"; "toggles" ], ints 6);
      ("full window", [ "cur"; "n" ], Json.Int drift_cfg.window);
    ]

(* A checkpoint of one circuit resumed against a source of another
   width is a typed Validation error naming both widths. *)
let pipeline_rejects_wrong_width_resume () =
  let path = Filename.temp_file "cfpm_stream_width" ".jsonl" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  let narrow = Util.small_random_circuit 3 in
  let wide = (Option.get (Circuits.Suite.find "cm85")).Circuits.Suite.build () in
  let run circuit ~resume =
    let bits = Netlist.Circuit.input_count circuit in
    Stream.Pipeline.run
      { (pipeline_cfg ~checkpoint:path ~resume 1) with sim_every = 4 }
      ~model:(Powermodel.Model.build circuit)
      ~source:
        (ok_or_fail "source"
           (Stream.Source.generator ~seed:5 ~bits
              [ { Stream.Source.sp = 0.5; st = 0.1; count = 3000 } ]))
  in
  ignore (ok_or_fail "first run" (run narrow ~resume:false));
  let e = expect_error "resume" (run wide ~resume:true) in
  Alcotest.(check bool) "validation" true (e.Guard.Error.kind = Guard.Error.Validation);
  Alcotest.(check (option string)) "checkpoint width"
    (Some (string_of_int (Netlist.Circuit.input_count narrow)))
    (Guard.Error.context_value e "checkpoint");
  Alcotest.(check (option string)) "source width"
    (Some (string_of_int (Netlist.Circuit.input_count wide)))
    (Guard.Error.context_value e "source")

(* A resumed run continues the checkpoint's weight schedule and drift
   windows; a config that asks for others is refused, naming the field
   and both values, instead of being silently dropped. *)
let pipeline_rejects_config_change_on_resume () =
  let path = Filename.temp_file "cfpm_stream_config" ".jsonl" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  let circuit = Util.small_random_circuit 3 in
  let bits = Netlist.Circuit.input_count circuit in
  let model = Powermodel.Model.build circuit in
  let run cfg =
    Stream.Pipeline.run { cfg with Stream.Pipeline.checkpoint = Some path } ~model
      ~source:
        (ok_or_fail "source"
           (Stream.Source.generator ~seed:5 ~bits
              [ { Stream.Source.sp = 0.5; st = 0.1; count = 3000 } ]))
  in
  let base = { (pipeline_cfg 1) with sim_every = 4 } in
  ignore (ok_or_fail "first run" (run base));
  let resume = { base with resume = true } in
  let refused what cfg field ckpt config =
    let e = expect_error what (run cfg) in
    Alcotest.(check bool) (what ^ ": validation") true (e.Guard.Error.kind = Guard.Error.Validation);
    Alcotest.(check (list (option string)))
      (what ^ ": field and both values")
      [ Some field; Some ckpt; Some config ]
      (List.map (Guard.Error.context_value e) [ "field"; "checkpoint"; "config" ])
  in
  refused "weight" { resume with weight = Stream.Weight.Exponential 0.1 } "weight" "equal" "exp:0.1";
  refused "window"
    { resume with drift = { test_drift_cfg with window = test_drift_cfg.window / 2 } }
    "window"
    (string_of_int test_drift_cfg.window)
    (string_of_int (test_drift_cfg.window / 2));
  refused "high"
    { resume with drift = { test_drift_cfg with high = 0.5 } }
    "high"
    (Json.to_string ~pretty:false (Json.Float test_drift_cfg.high))
    "0.5";
  let o = ok_or_fail "same config resumes" (run resume) in
  Alcotest.(check int) "resumed from the checkpoint" 3000 o.Stream.Pipeline.resumed_from

(* ---- serve integration ---- *)

let serve_stream_op () =
  Stream.Registry.publish "live" (fun () -> Json.Obj [ ("vectors", Json.Int 7) ]);
  Fun.protect ~finally:(fun () -> Stream.Registry.unpublish "live")
  @@ fun () ->
  let dir = Filename.temp_file "cfpm_stream_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try Unix.rmdir dir with _ -> ())
  @@ fun () ->
  let handler = Serve.Handler.create ~jobs:1 (Serve.Cache.create ~root:dir ()) in
  let response =
    Serve.Handler.handle_string handler {|{"id":9,"op":"stream"}|}
  in
  Alcotest.(check string) "live snapshot over the wire"
    {|{"id":9,"ok":true,"result":{"streams":{"live":{"vectors":7}}}}|}
    response

let suite =
  [
    Alcotest.test_case "weight schedules and parsing" `Quick weight_schedules;
    stats_merge_associative;
    stats_merge_commutative;
    Alcotest.test_case "consume is jobs-independent, byte for byte" `Quick
      consume_jobs_identity;
    Alcotest.test_case "stats checkpoint round trip is bit-exact" `Quick
      stats_checkpoint_roundtrip;
    Alcotest.test_case "drift fires once per regime change" `Quick
      drift_fires_once_per_regime;
    Alcotest.test_case "drift honours the min-samples guard" `Quick
      drift_min_samples_guard;
    Alcotest.test_case "drift never fires under the trigger" `Quick
      drift_below_high_never_fires;
    Alcotest.test_case "drift checkpoint round trip" `Quick
      drift_checkpoint_roundtrip;
    Alcotest.test_case "ingest sheds with a typed error" `Quick ingest_shed;
    Alcotest.test_case "ingest blocks losslessly and drains on close" `Quick
      ingest_block_backpressure;
    Alcotest.test_case "refit recovers exact coefficients" `Quick
      refit_recovers_coefficients;
    Alcotest.test_case "registry snapshots are sorted and live" `Quick
      registry_snapshot;
    Alcotest.test_case "pipeline detects the phase switch" `Quick
      pipeline_detects_drift;
    Alcotest.test_case "pipeline stats are jobs-independent" `Quick
      pipeline_jobs_identity;
    Alcotest.test_case "pipeline quarantines malformed records" `Quick
      pipeline_quarantines_malformed;
    Alcotest.test_case "pipeline stats are queue-capacity-independent" `Quick
      pipeline_queue_capacity_identity;
    Alcotest.test_case "batch labels match a scalar refit walk" `Quick
      pipeline_batch_labels_match_scalar_walk;
    Alcotest.test_case "a non-positive queue capacity is a typed error" `Quick
      pipeline_rejects_empty_queue;
    Alcotest.test_case "shed counts dropped records, not blocks" `Quick
      pipeline_shed_counts_records;
    Alcotest.test_case "ingest faults retry without perturbing stats" `Quick
      pipeline_ingest_faults_are_retried;
    Alcotest.test_case "drift faults skip judgements, never crash" `Quick
      pipeline_drift_faults_skip_never_crash;
    Alcotest.test_case "checkpoint faults cost at most one interval" `Quick
      pipeline_checkpoint_faults_cost_one_interval;
    Alcotest.test_case "SIGKILL + torn tail + resume is bit-identical" `Quick
      pipeline_sigkill_resume;
    Alcotest.test_case "serve answers the stream op" `Quick serve_stream_op;
    Alcotest.test_case "stats and checkpoints match stream.golden" `Quick
      stream_golden_replay;
    packed_folds_match_reference;
    Alcotest.test_case "pipeline power equals the scalar model at any width" `Quick
      pipeline_power_matches_scalar_model;
    Alcotest.test_case "a flush allocates per block, not per vector" `Quick
      block_fold_allocation;
    Alcotest.test_case "stats checkpoints check their vectors" `Quick
      stats_of_json_checks_vectors;
    Alcotest.test_case "drift checkpoints check their windows" `Quick
      drift_of_json_checks_windows;
    Alcotest.test_case "a resume of another width is a typed error" `Quick
      pipeline_rejects_wrong_width_resume;
    Alcotest.test_case "a resume with another weight or drift config is a typed error" `Quick
      pipeline_rejects_config_change_on_resume;
    Alcotest.test_case "observing powers boxes no weight step" `Quick
      power_fold_allocation;
    Alcotest.test_case "weight fill equals at, bit for bit" `Quick weight_fill_matches_at;
  ]

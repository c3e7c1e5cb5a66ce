(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, runs the ablation studies called out in DESIGN.md,
   finishes with Bechamel micro-benchmarks of the kernels, and writes a
   machine-readable BENCH_results.json so CI can archive a perf
   trajectory across PRs and diff the model errors of two runs.

     dune exec bench/main.exe

   Environment knobs (all optional):
     CFPM_VECTORS        vectors per evaluation run   (default 1500)
     CFPM_CHAR_VECTORS   characterization run length  (default 2500)
     CFPM_SKIP_TABLE1    set to skip the (slow) full Table 1
     CFPM_ONLY           comma-separated Table 1 circuit subset
     CFPM_JOBS           worker domains for the parallel engine
                         (default: Domain.recommended_domain_count)
     CFPM_BENCH_JSON     JSON report path (default BENCH_results.json)
     CFPM_TASK_DEADLINE  per-circuit wall-clock budget in seconds for the
                         Table 1 runs (cooperative; default: none)
     CFPM_FORCE_FAIL     comma-separated circuits whose Table 1 builds are
                         deterministically failed (fault-isolation drill)
     CFPM_RETRIES        supervised retries per task after the first
                         attempt (default 2)
     CFPM_BACKOFF_MS     base retry backoff in milliseconds (default 50)
     CFPM_RESUME         journal path: completed tasks are appended there
                         (write-then-fsync) and a relaunched run recovers
                         the journal and skips tasks already on disk
     CFPM_FAULT_SPEC     fault-injection clauses (see Guard.Fault), e.g.
                         "model_build:fail:0.3:seed=7" — chaos drills only
     CFPM_TRACE          path: enable span tracing and write a Chrome
                         trace-event JSON there at exit (load in Perfetto)
     CFPM_COMPILED       set to 0 to evaluate ADD models through the
                         node-by-node interpreter instead of the compiled
                         bulk evaluator (default: compiled)
     CFPM_ORDER          variable-order policy for every model build:
                         declared (default), info, sift or info+sift;
                         estimates are byte-identical across policies
     CFPM_PROGRESS       set to 1 for heartbeat lines on stderr while the
                         experiment pool drains

   Experiments run supervised and fault-isolated: a transient failure is
   retried with deterministic backoff, a circuit still failing after the
   retry budget becomes a {"status": "quarantined"} entry in the JSON
   report, a non-retryable one {"status": "error"}; the remaining
   circuits are unaffected and the harness still exits 0.  With
   CFPM_RESUME set, rows read back from the journal are marked
   {"status": "recovered"} and are byte-identical under [model_errors]
   to freshly computed ones.  Only a failure of the harness itself is
   fatal. *)

let vectors =
  match Sys.getenv_opt "CFPM_VECTORS" with
  | Some v -> int_of_string v
  | None -> 1500

let char_vectors =
  match Sys.getenv_opt "CFPM_CHAR_VECTORS" with
  | Some v -> int_of_string v
  | None -> 2500

let json_path =
  match Sys.getenv_opt "CFPM_BENCH_JSON" with
  | Some p -> p
  | None -> "BENCH_results.json"

let task_deadline =
  match Sys.getenv_opt "CFPM_TASK_DEADLINE" with
  | None -> None
  | Some s -> (
    match float_of_string_opt s with
    | Some d when d > 0.0 && Float.is_finite d -> Some d
    | _ ->
      Printf.eprintf
        "bench: ignoring invalid CFPM_TASK_DEADLINE=%S (expected seconds > 0)\n"
        s;
      None)

let force_fail =
  match Sys.getenv_opt "CFPM_FORCE_FAIL" with
  | None -> []
  | Some s -> List.filter (fun n -> n <> "") (String.split_on_char ',' s)

let resume_path = Sys.getenv_opt "CFPM_RESUME"

let trace_path = Sys.getenv_opt "CFPM_TRACE"

let supervision_policy =
  let env_int name =
    match Sys.getenv_opt name with
    | None -> None
    | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= 0 -> Some v
      | _ ->
        Printf.eprintf "bench: ignoring invalid %s=%S (expected int >= 0)\n"
          name s;
        None)
  in
  let env_float name =
    match Sys.getenv_opt name with
    | None -> None
    | Some s -> (
      match float_of_string_opt s with
      | Some v when v >= 0.0 && Float.is_finite v -> Some v
      | _ ->
        Printf.eprintf "bench: ignoring invalid %s=%S (expected ms >= 0)\n"
          name s;
        None)
  in
  Parallel.Pool.Supervisor.policy
    ?max_retries:(env_int "CFPM_RETRIES")
    ?base_backoff_ms:(env_float "CFPM_BACKOFF_MS")
    ()

let durable_options ?deadline () =
  {
    Experiments.Durable.default_options with
    journal = resume_path;
    resume = resume_path <> None;
    policy = supervision_policy;
    deadline;
  }

let heading title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* Runs [f], prints the wall clock, and returns (result, elapsed) so the
   JSON report can carry the timing alongside the data. *)
let timed label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "[%s: %.1fs]\n" label dt;
  (r, dt)

(* ------------------------------------------------------------------ *)
(* Experiment reproductions (one per paper table/figure).              *)

(* Fault isolation for a whole experiment: any escaping exception becomes
   a classified Guard.Error instead of killing the harness. *)
let protected f =
  match f () with
  | r -> Ok r
  | exception e -> Error (Guard.Error.of_exn e)

let report_failure label err =
  Printf.printf "%s FAILED: %s\n" label (Guard.Error.to_string err)

let report_outcome label render outcome =
  match outcome with
  | Experiments.Durable.Fresh (r, _) -> print_string (render r)
  | Experiments.Durable.Recovered (r, n) ->
    Printf.printf "[%s: recovered from journal, %d attempt(s)]\n" label n;
    print_string (render r)
  | Experiments.Durable.Quarantined (err, n) ->
    Printf.printf "%s QUARANTINED after %d attempt(s): %s\n" label n
      (Guard.Error.to_string err)
  | Experiments.Durable.Failed (err, _) -> report_failure label err

let run_fig7a () =
  heading "Experiment E1: Fig. 7a — RE vs transition probability (cm85)";
  let r, dt =
    timed "fig7a" (fun () ->
        protected (fun () ->
            Experiments.Durable.fig7a ~options:(durable_options ()) ~vectors
              ~char_vectors ()))
  in
  (match r with
  | Ok o -> report_outcome "fig7a" Experiments.Report.fig7a o
  | Error err -> report_failure "fig7a" err);
  (r, dt)

let run_fig7b () =
  heading "Experiment E2: Fig. 7b — accuracy/size trade-off (cm85)";
  let r, dt =
    timed "fig7b" (fun () ->
        protected (fun () ->
            Experiments.Durable.fig7b ~options:(durable_options ()) ~vectors
              ~char_vectors ()))
  in
  (match r with
  | Ok o -> report_outcome "fig7b" Experiments.Report.fig7b o
  | Error err -> report_failure "fig7b" err);
  (r, dt)

let table1_names () =
  match Sys.getenv_opt "CFPM_ONLY" with
  | Some s -> Some (String.split_on_char ',' s)
  | None -> None

let run_table1 () =
  heading "Experiment E3/E4: Table 1 — all benchmarks";
  let config =
    {
      Experiments.Table1.default_config with
      vectors;
      char_vectors;
      deadline_seconds = task_deadline;
      force_fail;
    }
  in
  let outcomes, dt =
    timed "table1" (fun () ->
        Experiments.Durable.table1
          ~options:(durable_options ?deadline:task_deadline ())
          ~config ?names:(table1_names ()) ())
  in
  let ok_rows =
    List.filter_map (fun (_, o) -> Experiments.Durable.survivor o) outcomes
  in
  print_string (Experiments.Report.table1 ok_rows);
  List.iter
    (fun (name, o) ->
      match o with
      | Experiments.Durable.Fresh _ -> ()
      | Experiments.Durable.Recovered (_, n) ->
        Printf.printf "[%s: recovered from journal, %d attempt(s)]\n" name n
      | Experiments.Durable.Quarantined (err, n) ->
        Printf.printf "%s QUARANTINED after %d attempt(s): %s\n" name n
          (Guard.Error.to_string err)
      | Experiments.Durable.Failed (err, _) -> report_failure name err)
    outcomes;
  (outcomes, dt)

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)

let ablation_weighting () =
  heading "Ablation A1: collapse weighting (cm85, MAX = 500)";
  let circuit = Circuits.Suite.case_study.Circuits.Suite.build () in
  let sim = Gatesim.Simulator.create circuit in
  let estimators =
    List.map
      (fun (label, weighting) ->
        (label, Experiments.Estimator.add_model
                  (Powermodel.Model.build ~weighting ~max_size:500 circuit)))
      [
        ("unweighted", Dd.Approx.Unweighted);
        ("uniform-mass", Dd.Approx.Uniform_mass);
        ("robust", Dd.Approx.Robust []);
      ]
  in
  let results = Experiments.Sweep.run_grid ~vectors ~seed:31 sim estimators in
  Printf.printf
    "ARE over the default grid (paper-literal ranking vs mass weighting vs \
     the statistics-robust default):\n";
  List.iter
    (fun (label, _) ->
      Printf.printf "  %-14s %7s%%\n" label
        (Experiments.Report.pct (Experiments.Sweep.are_average results label)))
    estimators

let ablation_accumulation () =
  heading
    "Ablation A2: approximation during construction vs one final collapse \
     (cm85, MAX = 500)";
  let circuit = Circuits.Suite.case_study.Circuits.Suite.build () in
  let sim = Gatesim.Simulator.create circuit in
  let incremental, _ =
    timed "incremental build" (fun () ->
        Powermodel.Model.build ~max_size:500 circuit)
  in
  let exact, _ =
    timed "exact build" (fun () -> Powermodel.Model.build circuit)
  in
  let oneshot_cap, _ =
    timed "one-shot compress" (fun () ->
        Dd.Approx.compress exact.Powermodel.Model.add_manager
          ~strategy:Dd.Approx.Average ~max_size:500 exact.Powermodel.Model.cap)
  in
  let oneshot = { exact with Powermodel.Model.cap = oneshot_cap } in
  let estimators =
    [
      ("incremental", Experiments.Estimator.add_model incremental);
      ("one-shot", Experiments.Estimator.add_model oneshot);
    ]
  in
  let results = Experiments.Sweep.run_grid ~vectors ~seed:32 sim estimators in
  Printf.printf "exact model: %d nodes; both compressed to <= 500\n"
    (Dd.Add.size exact.Powermodel.Model.cap);
  List.iter
    (fun (label, _) ->
      Printf.printf "  %-12s ARE %7s%%\n" label
        (Experiments.Report.pct (Experiments.Sweep.are_average results label)))
    estimators

let ablation_variable_pairing () =
  heading "Ablation A3: operand interleaving vs block input order (comparators)";
  let block_comparator bits =
    (* same function as Comparator.circuit but inputs declared a*, then b* *)
    let open Netlist in
    let b = Builder.create ~name:"cmp-block" in
    let a = Builder.inputs b "a" bits in
    let bb = Builder.inputs b "b" bits in
    let gt, eq, lt = Circuits.Comparator.ripple b ~a ~b:bb in
    Builder.output b "gt" gt;
    Builder.output b "eq" eq;
    Builder.output b "lt" lt;
    Builder.finish b
  in
  List.iter
    (fun bits ->
      let inter =
        Circuits.Comparator.circuit ~bits ~name:"cmp-inter" ()
      in
      let block = block_comparator bits in
      let size c = Powermodel.Model.size (Powermodel.Model.build c) in
      Printf.printf
        "  %2d-bit comparator: exact ADD %6d nodes interleaved vs %6d block\n"
        bits (size inter) (size block))
    [ 4; 5; 6 ]

let ablation_implementation_sensitivity () =
  heading
    "Ablation A4: white-box models track the implementation, not the \
     function (16-bit parity)";
  let xor_tree = Circuits.Parity.parity () in
  let nand_mapped = Circuits.Parity.parity_nand () in
  let report label circuit =
    let model = Powermodel.Model.build ~max_size:3000 circuit in
    Printf.printf
      "  %-10s %4d gates, uniform-average switching %.1f fF, worst case %.1f fF\n"
      label
      (Netlist.Circuit.gate_count circuit)
      (Powermodel.Model.average_capacitance model)
      (Powermodel.Model.max_capacitance model)
  in
  report "xor-cells" xor_tree;
  report "nand-only" nand_mapped;
  Printf.printf
    "  (same Boolean function, different netlists -> different power models)\n"

(* ------------------------------------------------------------------ *)
(* Ablation A5: variable-order policies.

   Every Table 1 circuit (under its Table 1 MAX bound, respecting
   CFPM_ONLY) plus the exact cm85 case study is built once per reorder
   policy; the report records node counts, sift swaps, reorder gain and
   build wall time per (circuit, policy) row.  Estimates are
   byte-identical across policies by construction — the ablation
   measures shape, not accuracy.  The tier-1 reorder suite asserts the
   cm85-exact node counts (declared 9382, sifting below it). *)

let ablation_reorder () =
  heading "Ablation A5: variable-order policies (Table 1 suite + exact cm85)";
  let only = table1_names () in
  let suite =
    List.filter
      (fun e ->
        match only with
        | None -> true
        | Some names -> List.mem e.Circuits.Suite.name names)
      Circuits.Suite.all
  in
  let cases =
    List.map
      (fun e ->
        ( e.Circuits.Suite.name,
          e.Circuits.Suite.build (),
          Some e.Circuits.Suite.max_avg ))
      suite
    @ [
        (* the exact case study: the headline size the reordering is
           judged on (declared order: 9382 nodes) *)
        ( "cm85-exact",
          Circuits.Suite.case_study.Circuits.Suite.build (),
          None );
      ]
  in
  let rows =
    List.concat_map
      (fun (label, circuit, max_size) ->
        List.map
          (fun policy ->
            let t0 = Unix.gettimeofday () in
            let model =
              Powermodel.Model.build ~reorder:policy ?max_size circuit
            in
            let dt = Unix.gettimeofday () -. t0 in
            let s = model.Powermodel.Model.stats in
            Printf.printf
              "  %-10s %-9s %6d nodes  %5d swap(s)  %+5d gain  %6.2fs
"
              label
              (Powermodel.Reorder.to_string policy)
              s.Powermodel.Model.final_size s.Powermodel.Model.sift_swaps
              s.Powermodel.Model.reorder_gain dt;
            Json.Obj
              [
                ("circuit", Json.String label);
                ( "max_size",
                  match max_size with
                  | Some m -> Json.Int m
                  | None -> Json.Null );
                ("policy", Json.String (Powermodel.Reorder.to_string policy));
                ("nodes", Json.Int s.Powermodel.Model.final_size);
                ("sift_swaps", Json.Int s.Powermodel.Model.sift_swaps);
                ("reorder_gain", Json.Int s.Powermodel.Model.reorder_gain);
                ("build_seconds", Json.Float dt);
              ])
          Powermodel.Reorder.all)
      cases
  in
  Json.List rows

(* ------------------------------------------------------------------ *)
(* Compiled eval_batch determinism probe.

   A fixed pseudo-random batch, large enough to span several pool shards
   (Dd.Compiled.block vectors each), evaluated with the ambient worker
   count.  Everything emitted except the [jobs] member must be
   byte-identical whatever CFPM_JOBS says — CI diffs the jobs=1 and
   jobs=4 reports on exactly this object. *)

let eval_batch_probe () =
  heading "Compiled eval_batch determinism probe";
  let circuit = Circuits.Suite.case_study.Circuits.Suite.build () in
  let model = Powermodel.Model.build ~max_size:500 circuit in
  let compiled = Powermodel.Model.compile model in
  let bits = Netlist.Circuit.input_count circuit in
  let prng = Stimulus.Prng.create 97 in
  let seq =
    Stimulus.Generator.sequence prng ~bits
      ~length:((4 * Dd.Compiled.block) + 1)
      ~sp:0.5 ~st:0.5
  in
  let batch, n = Powermodel.Model.pack_transitions compiled seq in
  let out = Powermodel.Model.eval_batch compiled ~inputs:batch ~n in
  let stats =
    Dd.Compiled.stats_batch
      (Powermodel.Model.compiled_program compiled)
      ~inputs:batch ~n
  in
  let digest =
    let b = Bytes.create (8 * Array.length out) in
    Array.iteri
      (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v))
      out;
    Digest.to_hex (Digest.bytes b)
  in
  let jobs = Parallel.Pool.default_jobs () in
  Printf.printf "  %d transitions on %d worker(s): digest %s\n" n jobs digest;
  Printf.printf "  fold: total %.3f fF, max %.2f fF, min %.2f fF\n"
    stats.Dd.Compiled.total stats.Dd.Compiled.maximum
    stats.Dd.Compiled.minimum;
  Json.Obj
    [
      ("n", Json.Int n);
      ("jobs", Json.Int jobs);
      ("output_digest", Json.String digest);
      ( "sample",
        Json.List
          (List.init (min 4 n) (fun i -> Json.Float out.(i))) );
      ("total", Json.Float stats.Dd.Compiled.total);
      ("maximum", Json.Float stats.Dd.Compiled.maximum);
      ("minimum", Json.Float stats.Dd.Compiled.minimum);
    ]

(* ------------------------------------------------------------------ *)
(* Adversarial worst-case probe.

   Cross-validates the ADD traversal against the independent PBO
   branch-and-bound oracle on the tractable Table 1 circuits — exact
   models, so the two routes must agree to float equality — then
   demonstrates the budget-bounded path on a circuit whose search space
   defeats a small conflict ceiling.  Budgets are conflict ceilings
   only, never wall clocks, so every row (and the pbo.* metrics the
   snapshot below picks up) is deterministic across hosts and CFPM_JOBS
   settings. *)

let adversarial_tractable = [ "decod"; "x2"; "alu2"; "cm85"; "cmb"; "cm150" ]

let adversarial_probe () =
  heading "Adversarial worst-case probe (ADD vs PBO cross-validation)";
  let only = table1_names () in
  let wanted name =
    match only with None -> true | Some names -> List.mem name names
  in
  let solver_stats = function
    | Some s ->
      [
        ("conflicts", Json.Int s.Pbo.Solver.conflicts);
        ("decisions", Json.Int s.Pbo.Solver.decisions);
        ("restarts", Json.Int s.Pbo.Solver.restarts);
      ]
    | None -> []
  in
  let agreement =
    List.filter_map
      (fun name ->
        if not (wanted name) then None
        else
          Option.map
            (fun entry ->
              let circuit = entry.Circuits.Suite.build () in
              let model = Powermodel.Model.build circuit in
              let budget =
                Guard.Budget.create ~conflict_ceiling:5_000_000 ()
              in
              match
                Powermodel.Adversarial.cross_validate ~budget model circuit
              with
              | Error e ->
                Printf.printf "  %-8s FAILED: %s\n" name
                  (Guard.Error.to_string e);
                Json.Obj
                  [
                    ("circuit", Json.String name);
                    ("error", Guard.Error.to_json e);
                  ]
              | Ok a ->
                let add = a.Powermodel.Adversarial.add in
                let pbo = a.Powermodel.Adversarial.pbo in
                Printf.printf
                  "  %-8s add %8.1f fF  pbo %8.1f fF  %s\n" name
                  add.Powermodel.Adversarial.value
                  pbo.Powermodel.Adversarial.value
                  (if a.Powermodel.Adversarial.agree then "agree"
                   else "DISAGREE");
                Json.Obj
                  ([
                     ("circuit", Json.String name);
                     ("add", Json.Float add.Powermodel.Adversarial.value);
                     ("pbo", Json.Float pbo.Powermodel.Adversarial.value);
                     ( "comparable",
                       Json.Bool a.Powermodel.Adversarial.comparable );
                     ("agree", Json.Bool a.Powermodel.Adversarial.agree);
                   ]
                  @ solver_stats pbo.Powermodel.Adversarial.stats))
            (Circuits.Suite.find name))
      adversarial_tractable
  in
  (* the bounded path: 16-input parity defeats a 2000-conflict ceiling,
     and the solver must answer a sound [value, upper] interval *)
  let bounded =
    match Circuits.Suite.find "parity" with
    | None -> Json.Null
    | Some entry -> (
      let circuit = entry.Circuits.Suite.build () in
      let budget = Guard.Budget.create ~conflict_ceiling:2000 () in
      match Powermodel.Adversarial.worst_pbo ~budget circuit with
      | Error e -> Json.Obj [ ("error", Guard.Error.to_json e) ]
      | Ok r ->
        Printf.printf
          "  %-8s bounded: achieved %.1f fF <= max <= %.1f fF (%s)\n"
          "parity" r.Powermodel.Adversarial.value
          r.Powermodel.Adversarial.upper
          (if r.Powermodel.Adversarial.optimal then "optimal"
           else "ceiling hit");
        Json.Obj
          ([
             ("circuit", Json.String "parity");
             ("value", Json.Float r.Powermodel.Adversarial.value);
             ("upper", Json.Float r.Powermodel.Adversarial.upper);
             ("optimal", Json.Bool r.Powermodel.Adversarial.optimal);
           ]
          @ solver_stats r.Powermodel.Adversarial.stats))
  in
  Json.Obj [ ("agreement", Json.List agreement); ("bounded", bounded) ]

(* Fixed drifting workload through the full telemetry pipeline: online
   statistics sharded over the pool, drift detection at the phase
   switch, exact re-evaluation + Lin refit.  Deterministic by
   construction, so the stats digest doubles as a cross-jobs identity
   check; runs before the metrics snapshot (its counters are Sum
   non-local and count-deterministic). *)
let stream_probe () =
  heading "Streaming telemetry probe";
  let circuit = Circuits.Suite.case_study.Circuits.Suite.build () in
  let model = Powermodel.Model.build ~max_size:500 circuit in
  let bits = Netlist.Circuit.input_count circuit in
  let phases =
    [
      { Stream.Source.sp = 0.5; st = 0.05; count = 6144 };
      { Stream.Source.sp = 0.85; st = 0.4; count = 6144 };
    ]
  in
  match Stream.Source.generator ~seed:2024 ~bits phases with
  | Error e -> Json.Obj [ ("error", Guard.Error.to_json e) ]
  | Ok source -> (
    let t0 = Unix.gettimeofday () in
    match Stream.Pipeline.run Stream.Pipeline.default_config ~model ~source with
    | Error e -> Json.Obj [ ("error", Guard.Error.to_json e) ]
    | Ok o ->
      let dt = Unix.gettimeofday () -. t0 in
      let n = Stream.Stats.vectors o.Stream.Pipeline.stats in
      let vps = float_of_int n /. dt in
      let digest =
        Digest.to_hex (Digest.string (Json.to_string (Stream.Pipeline.stats_json o)))
      in
      let jobs = Parallel.Pool.default_jobs () in
      Printf.printf
        "  %d vectors on %d worker(s): %.0f vectors/sec, %d drift event(s), \
         stats digest %s\n"
        n jobs vps
        (List.length o.Stream.Pipeline.events)
        digest;
      Json.Obj
        [
          ("n", Json.Int n);
          ("jobs", Json.Int jobs);
          ("drift_events", Json.Int (List.length o.Stream.Pipeline.events));
          ("quarantined", Json.Int o.Stream.Pipeline.quarantined);
          ("stats_digest", Json.String digest);
          ("vectors_per_sec", Json.Float vps);
        ])

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)

(* transitions per fig7a:eval-batch kernel run; the throughput member
   divides the OLS ns/run estimate by this *)
let eval_batch_transitions = 4096

let bechamel_suite () =
  heading "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let circuit = Circuits.Suite.case_study.Circuits.Suite.build () in
  let sim = Gatesim.Simulator.create circuit in
  let model = Powermodel.Model.build ~max_size:500 circuit in
  let exact = Powermodel.Model.build circuit in
  let compiled = Powermodel.Model.compile model in
  let batch_seq =
    let prng = Stimulus.Prng.create 78 in
    Stimulus.Generator.sequence prng
      ~bits:(Netlist.Circuit.input_count circuit)
      ~length:(eval_batch_transitions + 1) ~sp:0.5 ~st:0.5
  in
  let batch, batch_n = Powermodel.Model.pack_transitions compiled batch_seq in
  let prng = Stimulus.Prng.create 77 in
  let x_i = Array.init 11 (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
  let x_f = Array.init 11 (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
  let bdd_mgr = Dd.Bdd.manager () in
  let big_a =
    Dd.Bdd.band_list bdd_mgr
      (List.init 24 (fun i ->
           Dd.Bdd.bor bdd_mgr (Dd.Bdd.var bdd_mgr i) (Dd.Bdd.var bdd_mgr (i + 1))))
  in
  let tests =
    [
      (* E1-E4 kernels: one Test.make per reproduced table/figure *)
      (* the interpreted per-pattern walk over the same transitions the
         eval-batch kernel consumes — the baseline for the throughput
         ratio *)
      Test.make ~name:"fig7a:model-run" (Staged.stage (fun () ->
           Powermodel.Model.run model batch_seq));
      (* the compiled bulk path over a whole packed block; jobs:1 keeps
         the kernel a pure single-core measurement (no domain spawns) *)
      Test.make ~name:"fig7a:eval-batch" (Staged.stage (fun () ->
           Powermodel.Model.eval_batch ~jobs:1 compiled ~inputs:batch
             ~n:batch_n));
      Test.make ~name:"fig7b:model-build-500" (Staged.stage (fun () ->
           Powermodel.Model.build ~max_size:500 circuit));
      Test.make ~name:"table1-avg:gate-sim-step" (Staged.stage (fun () ->
           Gatesim.Simulator.switched_capacitance sim x_i x_f));
      Test.make ~name:"table1-bounds:compress" (Staged.stage (fun () ->
           Dd.Approx.compress exact.Powermodel.Model.add_manager
             ~strategy:Dd.Approx.Upper_bound ~max_size:500
             exact.Powermodel.Model.cap));
      Test.make ~name:"bdd:band-24vars" (Staged.stage (fun () ->
           Dd.Bdd.sat_fraction big_a));
    ]
  in
  (* the experiments above leave a large dead heap behind; without a
     compaction every allocating kernel run pays GC-marking slices
     proportional to that heap, which taxes the allocation-light
     kernels most (measured 2x on fig7a:eval-batch) *)
  Gc.compact ();
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ ns ] ->
            estimates := (name, ns) :: !estimates;
            if ns > 1e6 then Printf.printf "  %-28s %10.2f ms/run\n" name (ns /. 1e6)
            else if ns > 1e3 then Printf.printf "  %-28s %10.2f us/run\n" name (ns /. 1e3)
            else Printf.printf "  %-28s %10.1f ns/run\n" name ns
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n" name)
        results)
    tests;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !estimates

(* ------------------------------------------------------------------ *)
(* Machine-readable report.                                            *)

(* The headline throughput members, derived from the Bechamel estimates:
   ns per transition through the compiled batch kernel, transitions/sec,
   and the speedup over the interpreted per-pattern walk of the same
   transition sequence (fig7a:model-run) — the number the CI
   throughput-gate job asserts on. *)
let throughput_json kernels =
  match
    ( List.assoc_opt "fig7a:eval-batch" kernels,
      List.assoc_opt "fig7a:model-run" kernels )
  with
  | Some batch_ns, interp when batch_ns > 0.0 ->
    let per_transition = batch_ns /. float_of_int eval_batch_transitions in
    let tps = 1e9 /. per_transition in
    let detail =
      [
        ("kernel", Json.String "fig7a:eval-batch");
        ("transitions_per_run", Json.Int eval_batch_transitions);
        ("ns_per_transition", Json.Float per_transition);
        ("transitions_per_sec", Json.Float tps);
      ]
      @
      match interp with
      | Some interp_ns ->
        [ ("speedup_vs_interpreted", Json.Float (interp_ns /. batch_ns)) ]
      | None -> []
    in
    (Json.Float tps, Json.Obj detail)
  | _ -> (Json.Null, Json.Null)

let write_json ~total_seconds ~metrics ~fig7a ~fig7b ~table1 ~kernels
    ~eval_batch ~reorder ~stream ~adversarial =
  let outcome_json render (outcome, dt) =
    match outcome with
    | Ok o -> render ~wall_seconds:dt o
    | Error err -> Experiments.Bench_json.experiment_error ~wall_seconds:dt err
  in
  let experiments =
    List.filter_map
      (fun x -> x)
      [
        Option.map
          (fun o ->
            ("fig7a", outcome_json Experiments.Bench_json.fig7a_durable o))
          fig7a;
        Option.map
          (fun o ->
            ("fig7b", outcome_json Experiments.Bench_json.fig7b_durable o))
          fig7b;
        Option.map
          (fun (outcomes, dt) ->
            ( "table1",
              Experiments.Bench_json.table1_durable ~wall_seconds:dt outcomes ))
          table1;
      ]
  in
  let surviving result =
    Option.bind result (fun (r, _) ->
        Option.bind (Result.to_option r) Experiments.Durable.survivor)
  in
  let surviving_rows =
    Option.map
      (fun (outcomes, _) ->
        List.filter_map (fun (_, o) -> Experiments.Durable.survivor o) outcomes)
      table1
  in
  let transitions_per_sec, throughput = throughput_json kernels in
  let json =
    Json.Obj
      [
        ("schema", Json.String "cfpm-bench/8");
        ("jobs", Json.Int (Parallel.Pool.default_jobs ()));
        ("vectors", Json.Int vectors);
        ("char_vectors", Json.Int char_vectors);
        ( "only",
          match Sys.getenv_opt "CFPM_ONLY" with
          | Some s -> Json.String s
          | None -> Json.Null );
        ( "force_fail",
          Json.List (List.map (fun n -> Json.String n) force_fail) );
        ( "retries",
          Json.Int supervision_policy.Parallel.Pool.Supervisor.max_retries );
        ( "backoff_ms",
          Json.Float supervision_policy.Parallel.Pool.Supervisor.base_backoff_ms
        );
        ( "resume",
          match resume_path with Some p -> Json.String p | None -> Json.Null );
        ( "fault_spec",
          match Sys.getenv_opt "CFPM_FAULT_SPEC" with
          | Some s -> Json.String s
          | None -> Json.Null );
        ("total_seconds", Json.Float total_seconds);
        (* Obs.Metrics snapshot taken after the experiments and ablations
           but before Bechamel: only deterministic (Sum/Max, non-local)
           counters, so two runs of the same workload match key-for-key
           whatever CFPM_JOBS was. *)
        ("metrics", metrics);
        ("experiments", Json.Obj experiments);
        (* Bechamel OLS estimates, ns per run, keyed by kernel name — the
           machine-readable perf trajectory CI archives across PRs. *)
        ( "kernels",
          Json.Obj
            (List.map
               (fun (name, ns) ->
                 (name, Json.Obj [ ("ns_per_run", Json.Float ns) ]))
               kernels) );
        (* headline throughput of the compiled bulk evaluator, plus the
           speedup the CI throughput-gate job asserts on *)
        ("transitions_per_sec", transitions_per_sec);
        ("throughput", throughput);
        (* deterministic digest of a fixed eval_batch workload — CI diffs
           this member across CFPM_JOBS settings (modulo the jobs field) *)
        ("eval_batch", eval_batch);
        (* ablation A5 rows: per-(circuit, policy) node counts, sift
           swaps, reorder gain and build wall time *)
        ("reorder", reorder);
        (* streaming telemetry probe: a fixed drifting workload through
           the full pipeline; the stats digest is jobs-independent *)
        ("stream", stream);
        (* adversarial probe: ADD-vs-PBO agreement rows on the tractable
           suite plus one budget-bounded interval — conflict-ceiling
           budgets only, so the member is deterministic and the CI
           adversarial-smoke job asserts every row agrees *)
        ("adversarial", adversarial);
        (* surviving circuits only: quarantined/failed entries are
           reported under [experiments], never here, so the determinism
           diff compares like with like *)
        ( "model_errors",
          Experiments.Bench_json.model_errors ?fig7a:(surviving fig7a)
            ?fig7b:(surviving fig7b) ?table1:surviving_rows () );
      ]
  in
  (* atomic: a crash mid-emit leaves the previous complete report *)
  Journal.write_atomic json_path (Json.to_string json);
  Printf.printf "\n[wrote %s]\n" json_path

let () =
  let t0 = Unix.gettimeofday () in
  if trace_path <> None then Obs.Trace.enable ();
  Printf.printf
    "cfpm benchmark harness — Characterization-Free Behavioral Power \
     Modeling (DATE 1998)\n";
  Printf.printf "vectors per run: %d, characterization: %d, jobs: %d\n" vectors
    char_vectors
    (Parallel.Pool.default_jobs ());
  let fig7a = run_fig7a () in
  let fig7b = run_fig7b () in
  let table1 =
    match Sys.getenv_opt "CFPM_SKIP_TABLE1" with
    | Some _ ->
      Printf.printf "\n[table 1 skipped by CFPM_SKIP_TABLE1]\n";
      None
    | None -> Some (run_table1 ())
  in
  ablation_weighting ();
  ablation_accumulation ();
  ablation_variable_pairing ();
  ablation_implementation_sensitivity ();
  let reorder = ablation_reorder () in
  let eval_batch = eval_batch_probe () in
  let stream = stream_probe () in
  let adversarial = adversarial_probe () in
  (* snapshot before Bechamel: its adaptive iteration counts would bleed
     nondeterministic build/cache counts into the metrics (the fixed-size
     eval_batch probe above, by contrast, is deterministic) *)
  let metrics = Obs.Metrics.snapshot_json () in
  let kernels = bechamel_suite () in
  write_json
    ~total_seconds:(Unix.gettimeofday () -. t0)
    ~metrics ~fig7a:(Some fig7a) ~fig7b:(Some fig7b) ~table1 ~kernels
    ~eval_batch ~reorder ~stream ~adversarial;
  (match trace_path with
  | Some p ->
    Obs.Trace.write p;
    Printf.printf "[wrote trace %s]\n" p
  | None -> ());
  Printf.printf "\nDone.\n"

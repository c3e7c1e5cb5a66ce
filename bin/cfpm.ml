(* cfpm — characterization-free power modeling, command-line driver.

   Subcommands:
     list                    available benchmark circuits
     info <circuit>          netlist statistics
     build <circuit>         build a model, report size/accuracy stats
     fig7a / fig7b / table1  reproduce the paper's experiments
     dot <circuit>           dump the model ADD as Graphviz
     blif <circuit>          dump the netlist as BLIF *)

let resolve_circuit name =
  match Circuits.Suite.find name with
  | Some entry -> Some (entry.Circuits.Suite.build ())
  | None -> (
    match name with
    | "parity_nand" -> Some (Circuits.Parity.parity_nand ())
    | "adder8" -> Some (Circuits.Adder.circuit ~bits:8)
    | _ -> None)

let find_circuit name =
  match resolve_circuit name with
  | Some c -> c
  | None ->
    Printf.eprintf "unknown circuit %s; try `cfpm list'\n" name;
    exit 2

open Cmdliner

let circuit_arg =
  let doc = "Benchmark circuit name (see `cfpm list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let max_size_arg =
  let doc = "ADD size bound (the paper's MAX); 0 means unbounded." in
  Arg.(value & opt int 0 & info [ "max-size"; "m" ] ~docv:"N" ~doc)

let vectors_arg =
  let doc = "Vectors per evaluation run." in
  Arg.(value & opt int 2000 & info [ "vectors" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed for all random streams." in
  Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel experiment engine; 0 selects \
     $(b,CFPM_JOBS) or the machine's recommended domain count.  Results \
     are identical for every job count."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let jobs_opt jobs = if jobs <= 0 then None else Some jobs

(* Tracing is armed before the subcommand body runs and flushed through
   at_exit, so the trace survives the early [exit]s of the failure paths
   (quarantined circuits, Guard errors). *)
let trace_term =
  let doc =
    "Write a Chrome trace-event JSON of this run to $(docv) (open in \
     Perfetto or chrome://tracing).  $(b,CFPM_TRACE) sets the same path \
     from the environment."
  in
  let arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let setup path =
    let path =
      match path with Some _ -> path | None -> Sys.getenv_opt "CFPM_TRACE"
    in
    match path with
    | None -> ()
    | Some p ->
      Obs.Trace.enable ();
      at_exit (fun () ->
          Obs.Trace.write p;
          Printf.eprintf "cfpm: wrote trace %s\n" p)
  in
  Term.(const setup $ arg)

(* The compiled/interpreted knob for ADD evaluation.  Cmdliner sees the
   flag before the subcommand body runs, so setting the process-wide mode
   here is enough — every later [Estimator.add_model] call observes it. *)
let compiled_term =
  let doc =
    "Evaluate ADD models through the compiled bulk evaluator (true, the \
     default) or the per-pattern interpreted walk (false).  \
     $(b,CFPM_COMPILED) sets the same knob from the environment."
  in
  let arg =
    Arg.(
      value
      & opt (some bool) None
      & info [ "compiled" ] ~docv:"BOOL" ~doc)
  in
  let setup = function
    | None -> ()
    | Some true -> Experiments.Estimator.set_mode Experiments.Estimator.Compiled
    | Some false ->
      Experiments.Estimator.set_mode Experiments.Estimator.Interpreted
  in
  Term.(const setup $ arg)

(* The variable-order policy knob.  Like --compiled, it runs before the
   subcommand body, so setting the process-wide override is enough —
   every later [Model.build] without an explicit ?reorder observes it. *)
let order_term =
  let doc =
    "Variable-order policy for model construction: declared (default), \
     info (static information-measure order), sift (post-build sifting) \
     or info+sift.  Estimates are byte-identical across policies; only \
     model size and build time change.  $(b,CFPM_ORDER) sets the same \
     knob from the environment."
  in
  let policies =
    Arg.enum
      (List.map
         (fun p -> (Powermodel.Reorder.to_string p, p))
         Powermodel.Reorder.all)
  in
  let arg =
    Arg.(value & opt (some policies) None & info [ "order" ] ~docv:"POLICY" ~doc)
  in
  let setup = function
    | None -> ()
    | Some p -> Powermodel.Reorder.set_policy p
  in
  Term.(const setup $ arg)

(* Resource-budget flags shared by the model-building subcommands.  A zero
   value (the default) means "no such ceiling"; any combination composes
   into one Guard.Budget enforced cooperatively during construction. *)
let budget_term =
  let deadline_arg =
    let doc =
      "Wall-clock budget for model construction, in seconds (0: none)."
    in
    Arg.(value & opt float 0.0 & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let max_nodes_arg =
    let doc =
      "Ceiling on live decision-diagram nodes during construction (0: \
       none).  Under pressure the build degrades — sweeps dead nodes, \
       then escalates collapsing — before giving up."
    in
    Arg.(value & opt int 0 & info [ "max-nodes" ] ~docv:"N" ~doc)
  in
  let max_collapses_arg =
    let doc = "Ceiling on node-collapse invocations (0: none)." in
    Arg.(value & opt int 0 & info [ "max-collapses" ] ~docv:"N" ~doc)
  in
  let max_swaps_arg =
    let doc =
      "Ceiling on adjacent-level swaps spent by reordering policies (0: \
       none).  A capped sifting pass stops early but leaves a \
       consistent order."
    in
    Arg.(value & opt int 0 & info [ "max-swaps" ] ~docv:"N" ~doc)
  in
  let max_conflicts_arg =
    let doc =
      "Ceiling on PBO branch-and-bound conflicts for adversarial \
       worst-case search (0: none).  The solver stops at the ceiling \
       with a sound [value, upper] interval."
    in
    Arg.(value & opt int 0 & info [ "max-conflicts" ] ~docv:"N" ~doc)
  in
  let make deadline max_nodes max_collapses max_swaps max_conflicts =
    if
      deadline <= 0.0 && max_nodes <= 0 && max_collapses <= 0
      && max_swaps <= 0 && max_conflicts <= 0
    then None
    else
      Some
        (Guard.Budget.create
           ?wall_seconds:(if deadline > 0.0 then Some deadline else None)
           ?node_ceiling:(if max_nodes > 0 then Some max_nodes else None)
           ?collapse_ceiling:
             (if max_collapses > 0 then Some max_collapses else None)
           ?swap_ceiling:(if max_swaps > 0 then Some max_swaps else None)
           ?conflict_ceiling:
             (if max_conflicts > 0 then Some max_conflicts else None)
           ())
  in
  Cmdliner.Term.(
    const make $ deadline_arg $ max_nodes_arg $ max_collapses_arg
    $ max_swaps_arg $ max_conflicts_arg)

(* Errors exit through the Guard taxonomy: 3 parse, 4 validation,
   5 resource exhaustion, 6 internal. *)
let fail_with err =
  Printf.eprintf "cfpm: %s\n" (Guard.Error.to_string err);
  exit (Guard.Error.exit_code err)

let build_or_exit ?budget ?strategy ?weighting ?max_size c =
  match Powermodel.Model.build_checked ?budget ?strategy ?weighting ?max_size c with
  | Ok model -> model
  | Error { Powermodel.Model.error; partial } ->
    (match partial with
    | Some s ->
      Printf.eprintf
        "cfpm: construction aborted after %d/%d gates (peak %d nodes, %d \
         degrade steps, %.2fs)\n"
        s.Powermodel.Model.gates_done s.Powermodel.Model.gates
        s.Powermodel.Model.peak_size s.Powermodel.Model.degrade_steps
        s.Powermodel.Model.wall_seconds
    | None -> ());
    fail_with error

let strategy_arg =
  let doc = "Approximation strategy: average, upper or lower." in
  let strategies =
    Arg.enum
      [
        ("average", Dd.Approx.Average);
        ("upper", Dd.Approx.Upper_bound);
        ("lower", Dd.Approx.Lower_bound);
      ]
  in
  Arg.(value & opt strategies Dd.Approx.Average & info [ "strategy" ] ~doc)

let weighting_arg =
  let doc =
    "Collapse weighting: robust (default), uniform-mass or unweighted \
     (paper-literal)."
  in
  let weightings =
    Arg.enum
      [
        ("robust", Dd.Approx.Robust []);
        ("uniform-mass", Dd.Approx.Uniform_mass);
        ("unweighted", Dd.Approx.Unweighted);
      ]
  in
  Arg.(value & opt weightings (Dd.Approx.Robust []) & info [ "weighting" ] ~doc)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        let c = e.Circuits.Suite.build () in
        Printf.printf "%-8s %2d inputs %4d gates  MAX %d/%d  %s\n"
          e.Circuits.Suite.name
          (Netlist.Circuit.input_count c)
          (Netlist.Circuit.gate_count c)
          e.Circuits.Suite.max_avg e.Circuits.Suite.max_ub
          e.Circuits.Suite.description)
      Circuits.Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark circuits (Table 1 rows).")
    Term.(const run $ const ())

let info_cmd =
  let run name =
    let c = find_circuit name in
    Format.printf "%a@." Netlist.Circuit.pp c;
    let loads = Netlist.Circuit.loads c in
    let total = Array.fold_left ( +. ) 0.0 loads in
    Printf.printf "total load %.1f fF, area %.1f, max fanout %d\n" total
      (Netlist.Circuit.total_area c)
      (Array.fold_left max 0 (Netlist.Circuit.fanout c))
  in
  Cmd.v (Cmd.info "info" ~doc:"Show netlist statistics.")
    Term.(const run $ circuit_arg)

let build_cmd =
  let run () () () name max_size strategy weighting vectors seed budget =
    let c = find_circuit name in
    let max_size = if max_size <= 0 then None else Some max_size in
    let model = build_or_exit ?budget ~strategy ~weighting ?max_size c in
    let s = model.Powermodel.Model.stats in
    Printf.printf
      "model for %s: %d nodes (peak %d), %d approximations, %d BDD nodes, \
       %.2fs\n"
      name s.final_size s.peak_size s.approx_calls s.bdd_nodes s.wall_seconds;
    if s.degrade_steps > 0 then
      Printf.printf "  budget pressure: effective MAX halved %d time(s)\n"
        s.degrade_steps;
    if s.sift_swaps > 0 || s.reorder_gain <> 0 then
      Printf.printf "  reorder (%s): %d swap(s), %d node(s) saved\n"
        (Powermodel.Reorder.to_string model.Powermodel.Model.reorder)
        s.sift_swaps s.reorder_gain;
    Printf.printf "  exact: %b  avg capacitance %.2f fF  max %.2f fF\n"
      (Powermodel.Model.is_exact model)
      (Powermodel.Model.average_capacitance model)
      (Powermodel.Model.max_capacitance model);
    let sim = Gatesim.Simulator.create c in
    let estimators = [ ("model", Experiments.Estimator.add_model model) ] in
    let results = Experiments.Sweep.run_grid ~vectors ~seed sim estimators in
    Printf.printf "  ARE over the default (sp, st) grid: %s%%\n"
      (Experiments.Report.pct (Experiments.Sweep.are_average results "model"))
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Build a power model and evaluate it against the simulator.")
    Term.(
      const run $ trace_term $ compiled_term $ order_term $ circuit_arg
      $ max_size_arg $ strategy_arg $ weighting_arg $ vectors_arg $ seed_arg
      $ budget_term)

let fig7a_cmd =
  let run () () () vectors seed jobs =
    let r = Experiments.Fig7a.run ~vectors ~seed ?jobs:(jobs_opt jobs) () in
    print_string (Experiments.Report.fig7a r)
  in
  Cmd.v
    (Cmd.info "fig7a" ~doc:"Reproduce Fig. 7a (RE vs st for cm85).")
    Term.(
      const run $ trace_term $ compiled_term $ order_term $ vectors_arg
      $ seed_arg
      $ jobs_arg)

let fig7b_cmd =
  let run () () () vectors seed jobs =
    let r = Experiments.Fig7b.run ~vectors ~seed ?jobs:(jobs_opt jobs) () in
    print_string (Experiments.Report.fig7b r)
  in
  Cmd.v
    (Cmd.info "fig7b" ~doc:"Reproduce Fig. 7b (ARE vs model size for cm85).")
    Term.(
      const run $ trace_term $ compiled_term $ order_term $ vectors_arg
      $ seed_arg
      $ jobs_arg)

(* Supervision flags shared with the bench harness's environment knobs:
   retries with deterministic backoff, and an optional resume journal. *)
let supervision_term =
  let retries_arg =
    let doc =
      "Supervised retries per circuit after the first attempt; a circuit \
       still failing afterwards is quarantined (negative: default 2)."
    in
    Arg.(value & opt int (-1) & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc =
      "Base retry backoff in milliseconds (capped exponential with \
       deterministic jitter; negative: default 50)."
    in
    Arg.(value & opt float (-1.0) & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let resume_arg =
    let doc =
      "Journal path: every completed circuit is appended there \
       (write-then-fsync), and a relaunched run recovers the journal and \
       skips circuits already on disk."
    in
    Arg.(
      value & opt (some string) None & info [ "resume" ] ~docv:"JOURNAL" ~doc)
  in
  let make retries backoff resume =
    ( Parallel.Pool.Supervisor.policy
        ?max_retries:(if retries < 0 then None else Some retries)
        ?base_backoff_ms:(if backoff < 0.0 then None else Some backoff)
        (),
      resume )
  in
  Term.(const make $ retries_arg $ backoff_arg $ resume_arg)

let table1_cmd =
  let names_arg =
    let doc = "Circuits to include (default: all 13 rows)." in
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"NAME" ~doc)
  in
  let scale_arg =
    let doc = "Scale factor applied to the Table 1 MAX bounds." in
    Arg.(value & opt float 1.0 & info [ "max-scale" ] ~docv:"S" ~doc)
  in
  let run () () () vectors seed names max_scale jobs (policy, resume) =
    let config =
      {
        Experiments.Table1.default_config with
        vectors;
        seed;
        max_scale;
      }
    in
    let names = match names with [] -> None | l -> Some l in
    let options =
      {
        Experiments.Durable.default_options with
        journal = resume;
        resume = resume <> None;
        policy;
        jobs = jobs_opt jobs;
      }
    in
    match Experiments.Durable.table1 ~options ~config ?names () with
    | exception Guard.Error.Guarded e -> fail_with e
    | outcomes ->
      let rows =
        List.filter_map (fun (_, o) -> Experiments.Durable.survivor o) outcomes
      in
      print_string (Experiments.Report.table1 rows);
      List.iter
        (fun (name, o) ->
          match o with
          | Experiments.Durable.Recovered (_, n) ->
            Printf.printf "(%s recovered from journal, %d attempt(s))\n" name n
          | _ -> ())
        outcomes;
      let failures =
        List.filter_map
          (fun (name, o) ->
            match o with
            | Experiments.Durable.Quarantined (e, n) -> Some (name, "quarantined", e, n)
            | Experiments.Durable.Failed (e, n) -> Some (name, "failed", e, n)
            | Experiments.Durable.Fresh _ | Experiments.Durable.Recovered _ ->
              None)
          outcomes
      in
      (match failures with
      | [] -> ()
      | (_, _, first, _) :: _ ->
        List.iter
          (fun (name, what, e, n) ->
            Printf.eprintf "cfpm: %s %s after %d attempt(s): %s\n" name what n
              (Guard.Error.to_string e))
          failures;
        exit (Guard.Error.exit_code first))
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (all benchmarks).")
    Term.(
      const run $ trace_term $ compiled_term $ order_term $ vectors_arg
      $ seed_arg $ names_arg $ scale_arg $ jobs_arg $ supervision_term)

let throughput_cmd =
  let transitions_arg =
    let doc = "Transitions per measured batch." in
    Arg.(value & opt int 200_000 & info [ "transitions"; "n" ] ~docv:"N" ~doc)
  in
  let run () () name max_size transitions seed jobs =
    if transitions < 1 then begin
      Printf.eprintf "cfpm: --transitions must be at least 1\n";
      exit 2
    end;
    let c = find_circuit name in
    let max_size = if max_size <= 0 then None else Some max_size in
    let model = build_or_exit ?max_size c in
    let compiled = Powermodel.Model.compile model in
    let program = Powermodel.Model.compiled_program compiled in
    let bits = Netlist.Circuit.input_count c in
    let prng = Stimulus.Prng.create seed in
    let vectors =
      Stimulus.Generator.sequence prng ~bits ~length:(transitions + 1) ~sp:0.5
        ~st:0.5
    in
    let batch, n = Powermodel.Model.pack_transitions compiled vectors in
    let jobs = jobs_opt jobs in
    Printf.printf
      "%s: %d-node model compiled to %d triples + %d leaves; %d transitions\n"
      name
      (Powermodel.Model.size model)
      (Dd.Compiled.node_count program)
      (Dd.Compiled.leaf_count program)
      n;
    (* the compiled program must agree bit for bit with the interpreted
       walk before its timing means anything *)
    let out = Powermodel.Model.eval_batch ?jobs compiled ~inputs:batch ~n in
    for k = 0 to min 999 (n - 1) do
      let expect =
        Powermodel.Model.switched_capacitance model ~x_i:vectors.(k)
          ~x_f:vectors.(k + 1)
      in
      if out.(k) <> expect then begin
        Printf.eprintf "cfpm: compiled/interpreted mismatch at transition %d\n"
          k;
        exit 6
      end
    done;
    (* repeat each measurement until it dominates clock granularity *)
    let time f =
      let rec go reps =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          f ()
        done;
        let dt = Unix.gettimeofday () -. t0 in
        if dt >= 0.2 then dt /. float_of_int reps else go (reps * 2)
      in
      go 1
    in
    let sink = ref 0.0 in
    let interp_s =
      time (fun () ->
          let acc = ref 0.0 in
          for k = 0 to n - 1 do
            acc :=
              !acc
              +. Powermodel.Model.switched_capacitance model ~x_i:vectors.(k)
                   ~x_f:vectors.(k + 1)
          done;
          sink := !acc)
    in
    let batch_s =
      time (fun () ->
          let out =
            Powermodel.Model.eval_batch ?jobs compiled ~inputs:batch ~n
          in
          sink := out.(0))
    in
    ignore !sink;
    let report label seconds =
      let per = seconds /. float_of_int n *. 1e9 in
      Printf.printf "  %-12s %10.1f ns/transition  %12.0f transitions/sec\n"
        label per (1e9 /. per)
    in
    report "interpreted" interp_s;
    report "compiled" batch_s;
    Printf.printf "  speedup      %10.1fx\n" (interp_s /. batch_s)
  in
  Cmd.v
    (Cmd.info "throughput"
       ~doc:
         "Measure compiled bulk-evaluation throughput against the \
          per-pattern interpreted walk.")
    Term.(
      const run $ trace_term $ order_term $ circuit_arg $ max_size_arg
      $ transitions_arg $ seed_arg $ jobs_arg)

let dot_cmd =
  let run name max_size strategy weighting =
    let c = find_circuit name in
    let max_size = if max_size <= 0 then None else Some max_size in
    let model = Powermodel.Model.build ~strategy ~weighting ?max_size c in
    print_string (Powermodel.Model.to_dot model)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Dump the model ADD as Graphviz DOT.")
    Term.(const run $ circuit_arg $ max_size_arg $ strategy_arg $ weighting_arg)

let import_cmd =
  let file_arg =
    let doc = "BLIF file describing the combinational macro." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run () () file max_size strategy weighting budget =
    match Netlist.Blif.parse_file file with
    | Error err -> fail_with err
    | Ok c ->
      Format.printf "%a@." Netlist.Circuit.pp c;
      let max_size = if max_size <= 0 then None else Some max_size in
      let model = build_or_exit ?budget ~strategy ~weighting ?max_size c in
      Printf.printf
        "model: %d nodes (exact: %b), avg %.2f fF, worst case %.2f fF\n"
        (Powermodel.Model.size model)
        (Powermodel.Model.is_exact model)
        (Powermodel.Model.average_capacitance model)
        (Powermodel.Model.max_capacitance model)
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Parse a BLIF netlist, map it onto the cell library and model it.")
    Term.(
      const run $ trace_term $ order_term $ file_arg $ max_size_arg
      $ strategy_arg $ weighting_arg $ budget_term)

let worst_cmd =
  let method_arg =
    let doc =
      "Worst-case search route: add (exact/conservative ADD traversal, \
       the default), pbo (independent branch-and-bound oracle over the \
       netlist — no ADD, scales past the node budget) or both (run both \
       and cross-validate; float-exact agreement is enforced when both \
       routes are proven)."
    in
    Arg.(
      value
      & opt (enum [ ("add", `Add); ("pbo", `Pbo); ("both", `Both) ]) `Add
      & info [ "method" ] ~docv:"METHOD" ~doc)
  in
  let show v =
    String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')
  in
  let run_add c ?budget max_size =
    let bound =
      match Powermodel.Bounds.build ?budget ?max_size c with
      | m -> m
      | exception Powermodel.Model.Build_aborted (e, _) -> fail_with e
    in
    let x_i, x_f, value = Powermodel.Analysis.worst_case_transition bound in
    Printf.printf
      "%s worst-case transition %s: %s -> %s, bound %.1f fF (exact: %b)\n"
      c.Netlist.Circuit.name
      (if Powermodel.Model.is_exact bound then "(exact witness)"
       else "(conservative)")
      (show x_i) (show x_f) value
      (Powermodel.Model.is_exact bound);
    bound
  in
  let run_pbo c ?budget () =
    match Powermodel.Adversarial.worst_pbo ?budget c with
    | Error e -> fail_with e
    | Ok r ->
      Printf.printf "%s worst-case transition (pbo, %s): %s -> %s, %.1f fF\n"
        c.Netlist.Circuit.name
        (if r.Powermodel.Adversarial.optimal then "optimal" else "bounded")
        (show r.Powermodel.Adversarial.x_i)
        (show r.Powermodel.Adversarial.x_f)
        r.Powermodel.Adversarial.value;
      if not r.Powermodel.Adversarial.optimal then
        Printf.printf "  true worst case within [%.1f, %.1f] fF\n"
          r.Powermodel.Adversarial.value r.Powermodel.Adversarial.upper;
      (match r.Powermodel.Adversarial.stats with
      | Some s ->
        Printf.printf
          "  solver: %d decisions, %d propagations, %d conflicts, %d \
           restarts\n"
          s.Pbo.Solver.decisions s.Pbo.Solver.propagations
          s.Pbo.Solver.conflicts s.Pbo.Solver.restarts
      | None -> ());
      r
  in
  let print_sensitivities c bound =
    let sens = Powermodel.Analysis.toggle_sensitivities bound in
    Printf.printf "per-input toggle sensitivities (fF):\n";
    Array.iteri
      (fun j s ->
        Printf.printf "  %-6s %8.2f\n" c.Netlist.Circuit.input_names.(j) s)
      sens
  in
  (* A budget-bounded (non-optimal) PBO answer still prints its sound
     interval, but exits through the typed Resource error so scripted
     callers can tell a proof from a truncation. *)
  let finish_pbo (r : Powermodel.Adversarial.result_) =
    match r.reason with Some e -> fail_with e | None -> ()
  in
  let run () method_ name max_size budget =
    let c = find_circuit name in
    let max_size = if max_size <= 0 then None else Some max_size in
    match method_ with
    | `Add ->
      let bound = run_add c ?budget max_size in
      print_sensitivities c bound
    | `Pbo ->
      let r = run_pbo c ?budget () in
      finish_pbo r
    | `Both ->
      let bound = run_add c ?budget max_size in
      let r = run_pbo c ?budget () in
      let add_value = Powermodel.Model.max_capacitance bound in
      if Powermodel.Model.is_exact bound && r.Powermodel.Adversarial.optimal
      then
        if add_value = r.Powermodel.Adversarial.value then
          Printf.printf "agreement: float-exact at %.1f fF\n" add_value
        else
          fail_with
            (Guard.Error.internal
               "ADD and PBO worst-case values disagree on an exact model"
               ~context:
                 [
                   ("circuit", c.Netlist.Circuit.name);
                   ("add_value", Printf.sprintf "%.17g" add_value);
                   ("pbo_value",
                    Printf.sprintf "%.17g" r.Powermodel.Adversarial.value);
                 ])
      else begin
        Printf.printf
          "note: ADD model is not exact; PBO carries the worst case\n";
        if r.Powermodel.Adversarial.value > add_value +. 1e-9 then
          fail_with
            (Guard.Error.internal
               "PBO found a real transition above the conservative ADD bound"
               ~context:
                 [
                   ("circuit", c.Netlist.Circuit.name);
                   ("add_bound", Printf.sprintf "%.17g" add_value);
                   ("pbo_value",
                    Printf.sprintf "%.17g" r.Powermodel.Adversarial.value);
                 ])
      end;
      finish_pbo r
  in
  Cmd.v
    (Cmd.info "worst"
       ~doc:
         "Worst-case transition witness — ADD traversal, the independent \
          PBO oracle, or both cross-validated.")
    Term.(
      const run $ trace_term $ method_arg $ circuit_arg $ max_size_arg
      $ budget_term)

let blif_cmd =
  let run name =
    let c = find_circuit name in
    print_string (Netlist.Blif.to_string c)
  in
  Cmd.v
    (Cmd.info "blif" ~doc:"Dump the netlist as BLIF.")
    Term.(const run $ circuit_arg)

(* ------------------------------------------------------------------ *)
(* The model store: durable artifacts + the power-query service.        *)

let out_arg =
  let doc = "Artifact path to write." in
  Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let defaults_term =
  let sp_arg =
    let doc = "Default signal probability stored in the artifact." in
    Arg.(value & opt float 0.5 & info [ "sp" ] ~docv:"P" ~doc)
  in
  let st_arg =
    let doc = "Default transition probability stored in the artifact." in
    Arg.(value & opt float 0.5 & info [ "st" ] ~docv:"P" ~doc)
  in
  Term.(const (fun sp st -> (sp, st)) $ sp_arg $ st_arg)

let store_save_cmd =
  let run () () name out max_size strategy weighting defaults budget =
    let c = find_circuit name in
    let max_size = if max_size <= 0 then None else Some max_size in
    let model = build_or_exit ?budget ~strategy ~weighting ?max_size c in
    match Store.save ~defaults ~path:out model with
    | Error e -> fail_with e
    | Ok meta ->
      let bytes =
        try (Unix.stat out).Unix.st_size with Unix.Unix_error _ -> 0
      in
      Printf.printf
        "saved %s: %s, %d inputs, %d nodes + %d leaves, %d bytes (%s)\n" out
        meta.Store.circuit meta.Store.inputs meta.Store.nodes meta.Store.leaves
        bytes
        (if meta.Store.exact then "exact" else "approximate")
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:
         "Build a model and write it as a durable, CRC-framed binary \
          artifact.")
    Term.(
      const run $ trace_term $ order_term $ circuit_arg $ out_arg
      $ max_size_arg $ strategy_arg $ weighting_arg $ defaults_term
      $ budget_term)

let store_verify_cmd =
  let paths_arg =
    let doc = "Artifacts to verify." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let run paths =
    let failures =
      List.filter_map
        (fun path ->
          match Store.verify path with
          | Ok meta ->
            Printf.printf "%s: ok — %s, %d nodes + %d leaves, %s\n" path
              meta.Store.circuit meta.Store.nodes meta.Store.leaves
              (if meta.Store.exact then "exact" else "approximate");
            None
          | Error e ->
            Printf.printf "%s: FAILED (%s) — %s\n" path
              (Option.value (Store.reason e) ~default:"io")
              (Guard.Error.to_string e);
            Some e)
        paths
    in
    match failures with
    | [] -> ()
    | first :: _ -> exit (Guard.Error.exit_code first)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Cold-check artifacts: magic, version, every section CRC and the \
          structural program invariants — without building a single diagram \
          node.")
    Term.(const run $ paths_arg)

let request_arg =
  let doc =
    "The request, as protocol JSON, e.g. \
     '{\"id\":1,\"op\":\"expectation\",\"model\":\"cm85.cfpm\",\"sp\":0.5,\
     \"st\":0.2}'."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"REQUEST" ~doc)

let deadline_ms_arg =
  let doc = "Default per-request wall-clock deadline in ms (0: none)." in
  Arg.(value & opt float 0.0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let handler_deadline ms = if ms > 0.0 then Some (ms /. 1000.0) else None

let store_query_cmd =
  let run () () request jobs deadline_ms =
    let cache = Serve.Cache.create () in
    let handler =
      Serve.Handler.create ?jobs:(jobs_opt jobs)
        ?deadline:(handler_deadline deadline_ms) ~resolve_circuit cache
    in
    print_endline (Serve.Handler.handle_string handler request)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Answer one protocol request locally (no server): same handler, \
          same response bytes as `cfpm serve' — the reference for the \
          chaos CI's byte-identity check.  Model paths resolve as given.")
    Term.(
      const run $ trace_term $ compiled_term $ request_arg $ jobs_arg
      $ deadline_ms_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Versioned, self-verifying binary model artifacts: save, verify, \
          query.")
    [ store_save_cmd; store_verify_cmd; store_query_cmd ]

(* Where a client should dial: a Unix socket path, or host:port. *)
let address_term =
  let socket_arg =
    let doc = "Unix-domain socket path." in
    Arg.(
      value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let host_arg =
    let doc = "TCP host (with --port)." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let port_arg =
    let doc = "TCP port; 0 with --socket unset is an error." in
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let make socket host port =
    match (socket, port) with
    | Some path, _ -> `Unix path
    | None, p when p > 0 -> `Tcp (host, p)
    | None, _ ->
      Printf.eprintf "cfpm: give either --socket PATH or --port N\n";
      exit 2
  in
  Term.(const make $ socket_arg $ host_arg $ port_arg)

let serve_cmd =
  let models_arg =
    let doc =
      "Store root: request model paths resolve under this directory and \
       may not escape it."
    in
    Arg.(value & opt string "." & info [ "models" ] ~docv:"DIR" ~doc)
  in
  let workers_arg =
    let doc = "Worker threads (concurrent in-flight requests)." in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let pending_arg =
    let doc =
      "Accepted connections allowed to wait for a worker; beyond this new \
       connections are shed with a typed overloaded error."
    in
    Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N" ~doc)
  in
  let cache_mb_arg =
    let doc =
      "Model-cache ceiling in MiB (LRU eviction above it; 0: unbounded)."
    in
    Arg.(value & opt int 0 & info [ "cache-mb" ] ~docv:"MB" ~doc)
  in
  let journal_arg =
    let doc =
      "Warm-start journal: every freshly loaded artifact is appended \
       (CRC-framed, write-then-fsync), and a restarted server recovers the \
       journal and pre-loads those models."
    in
    Arg.(
      value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let run () address models workers max_pending deadline_ms cache_mb jobs
      journal =
    let byte_ceiling =
      if cache_mb > 0 then Some (cache_mb * 1024 * 1024) else None
    in
    let cache = Serve.Cache.create ?byte_ceiling ~root:models () in
    (match journal with
    | None -> ()
    | Some jpath -> (
      (match Journal.recover jpath with
      | Error e ->
        Printf.eprintf "cfpm serve: cannot recover journal %s: %s\n%!" jpath
          (Guard.Error.to_string e)
      | Ok r ->
        if r.Journal.existed then
          if r.Journal.torn || r.Journal.dropped > 0 then
            Printf.eprintf
              "cfpm serve: journal %s recovery healed a dirty tail (%d \
               record(s) kept, %d dropped%s)\n%!"
              jpath r.Journal.recovered r.Journal.dropped
              (if r.Journal.torn then ", torn final record" else "")
          else if r.Journal.recovered = 0 then
            Printf.eprintf
              "cfpm serve: journal %s exists but holds no records (nothing \
               to warm)\n%!"
              jpath;
        List.iter
          (fun (key, _) ->
            match Serve.Cache.find_or_load cache key with
            | Ok _ -> Printf.eprintf "cfpm serve: warmed %s\n%!" key
            | Error e ->
              Printf.eprintf "cfpm serve: cannot warm %s: %s\n%!" key
                (Guard.Error.to_string e))
          r.Journal.records);
      match Journal.open_ jpath with
      | j ->
        at_exit (fun () -> Journal.close j);
        Serve.Cache.on_load cache (fun name meta ->
            (* best-effort: a journal fault (including an injected torn
               append) must never fail the request that loaded the model *)
            try Journal.append j ~key:name (Store.meta_json meta)
            with _ -> ())
      | exception Guard.Error.Guarded e ->
        Printf.eprintf "cfpm serve: cannot open journal %s: %s\n%!" jpath
          (Guard.Error.to_string e)))
    ;
    let handler =
      Serve.Handler.create ?jobs:(jobs_opt jobs)
        ?deadline:(handler_deadline deadline_ms) ~resolve_circuit cache
    in
    let server =
      match
        Serve.Server.create
          { Serve.Server.address; workers; max_pending; handler }
      with
      | s -> s
      | exception Guard.Error.Guarded e -> fail_with e
    in
    let stop _ = Serve.Server.stop server in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    let where =
      match Serve.Server.address server with
      | Unix.ADDR_UNIX path -> path
      | Unix.ADDR_INET (host, port) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
    in
    Printf.eprintf
      "cfpm serve: listening on %s (%d workers, %d pending max)\n%!" where
      workers max_pending;
    Serve.Server.run server;
    Printf.eprintf "cfpm serve: drained, all in-flight requests answered\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fault-tolerant power-query server over saved model \
          artifacts (length-prefixed JSON protocol; graceful drain on \
          SIGTERM).")
    Term.(
      const run $ trace_term $ address_term $ models_arg $ workers_arg
      $ pending_arg $ deadline_ms_arg $ cache_mb_arg $ jobs_arg $ journal_arg)

(* ------------------------------------------------------------------ *)
(* Streaming telemetry.                                                 *)

let stream_cmd =
  let phases_arg =
    let doc =
      "Generated workload phases, $(b,sp:st:count) triples separated by \
       commas.  The Markov chain continues across phase switches, so a \
       switch is exactly the workload drift the detector watches for."
    in
    Arg.(
      value
      & opt string "0.5:0.05:6144,0.85:0.4:6144"
      & info [ "phases" ] ~docv:"SPEC" ~doc)
  in
  let vectors_file_arg =
    let doc =
      "Stream vectors from $(docv) (one 0/1 bitstring per line; malformed \
       lines are quarantined) instead of the phase generator."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "vectors-file" ] ~docv:"FILE" ~doc)
  in
  let weight_arg =
    let doc =
      "Weight schedule for the weighted power mean: $(b,equal), \
       $(b,exp:LAMBDA), $(b,bounded(W,FLOOR)) or $(b,scaled(W,C))."
    in
    Arg.(value & opt string "equal" & info [ "weight" ] ~docv:"SPEC" ~doc)
  in
  let drift_term =
    let window_arg =
      let doc = "Vectors per drift-detection window." in
      Arg.(
        value
        & opt int Stream.Drift.default_config.Stream.Drift.window
        & info [ "window" ] ~docv:"N" ~doc)
    in
    let min_samples_arg =
      let doc = "Smallest window ever judged (guards the final partial one)." in
      Arg.(
        value
        & opt int Stream.Drift.default_config.Stream.Drift.min_samples
        & info [ "min-samples" ] ~docv:"N" ~doc)
    in
    let high_arg =
      let doc = "Trigger distance while armed." in
      Arg.(
        value
        & opt float Stream.Drift.default_config.Stream.Drift.high
        & info [ "drift-high" ] ~docv:"D" ~doc)
    in
    let low_arg =
      let doc = "Re-arm distance while cooling (hysteresis)." in
      Arg.(
        value
        & opt float Stream.Drift.default_config.Stream.Drift.low
        & info [ "drift-low" ] ~docv:"D" ~doc)
    in
    Term.(
      const (fun window min_samples high low ->
          { Stream.Drift.window; min_samples; high; low })
      $ window_arg $ min_samples_arg $ high_arg $ low_arg)
  in
  let checkpoint_arg =
    let doc = "Checkpoint journal path (enables crash recovery)." in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_every_arg =
    let doc = "Vectors between checkpoints." in
    Arg.(value & opt int 8192 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let resume_arg =
    let doc =
      "Recover the checkpoint journal and resume after the last good \
       checkpoint instead of starting fresh.  The weight and drift \
       settings must match the checkpoint's (exit 4 otherwise)."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let shed_arg =
    let doc =
      "Shed records when the ingest queue is full (typed \
       $(b,reason=overloaded) backpressure) instead of blocking the \
       producer; records cross the queue in blocks of 512, so a whole \
       block is shed and each of its records counts."
    in
    Arg.(value & flag & info [ "shed" ] ~doc)
  in
  let queue_arg =
    let doc =
      "Ingest queue capacity in records, rounded up to whole 512-record \
       blocks."
    in
    Arg.(value & opt int 4096 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let sim_every_arg =
    let doc =
      "Simulate every k-th transition as a refit sample for the Lin \
       baseline; 0 disables refitting."
    in
    Arg.(value & opt int 16 & info [ "sim-every" ] ~docv:"K" ~doc)
  in
  let throttle_arg =
    let doc = "Seconds slept per flush (chaos-test seam)." in
    Arg.(value & opt float 0.0 & info [ "throttle" ] ~docv:"S" ~doc)
  in
  let report_out_arg =
    let doc = "Write the full JSON report (timings included) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let stats_out_arg =
    let doc =
      "Write the deterministic statistics subset to $(docv) — \
       byte-identical across job counts and across SIGKILL + resume."
    in
    Arg.(
      value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc)
  in
  let parse_phases spec =
    let phase_of s =
      match String.split_on_char ':' (String.trim s) with
      | [ sp; st; count ] -> (
        match
          (float_of_string_opt sp, float_of_string_opt st, int_of_string_opt count)
        with
        | Some sp, Some st, Some count -> Some { Stream.Source.sp; st; count }
        | _ -> None)
      | _ -> None
    in
    let parts = String.split_on_char ',' spec in
    let phases = List.filter_map phase_of parts in
    if List.length phases <> List.length parts then begin
      Printf.eprintf
        "cfpm: malformed --phases %S (expected sp:st:count[,sp:st:count...])\n"
        spec;
      exit 2
    end;
    phases
  in
  let run () () name max_size phases_spec vectors_file weight_spec drift
      checkpoint checkpoint_every resume shed queue sim_every throttle seed
      jobs report_out stats_out budget =
    let c = find_circuit name in
    let bits = Netlist.Circuit.input_count c in
    let max_size = if max_size <= 0 then None else Some max_size in
    let model = build_or_exit ?budget ?max_size c in
    let weight =
      match Stream.Weight.of_string weight_spec with
      | Ok w -> w
      | Error e -> fail_with e
    in
    let source =
      match vectors_file with
      | Some path -> (
        match Stream.Source.of_file ~path ~bits with
        | Ok s -> s
        | Error e -> fail_with e)
      | None -> (
        match Stream.Source.generator ~seed ~bits (parse_phases phases_spec) with
        | Ok s -> s
        | Error e -> fail_with e)
    in
    let cfg =
      {
        Stream.Pipeline.default_config with
        weight;
        drift;
        policy = (if shed then Stream.Ingest.Shed else Stream.Ingest.Block);
        queue_capacity = queue;
        checkpoint;
        checkpoint_every;
        resume;
        jobs = jobs_opt jobs;
        sim_every;
        throttle;
      }
    in
    let simulator = Gatesim.Simulator.create c in
    match
      Stream.Pipeline.run ?budget ~simulator cfg ~model ~source
    with
    | Error e -> fail_with e
    | Ok o ->
      let stats = o.Stream.Pipeline.stats in
      Printf.printf
        "%s: %d vectors (%d transitions), mean sp %.4f st %.4f, mean power \
         %.3f fF (weighted %.3f)\n"
        name
        (Stream.Stats.vectors stats)
        (Stream.Stats.transitions stats)
        (Stream.Stats.mean_sp stats) (Stream.Stats.mean_st stats)
        (Stream.Stats.power_mean stats)
        (Stream.Stats.weighted_power_mean stats);
      if o.Stream.Pipeline.resumed_from > 0 then
        Printf.printf "  resumed from checkpoint at %d vectors\n"
          o.Stream.Pipeline.resumed_from;
      List.iter
        (fun (ev : Stream.Pipeline.event) ->
          Printf.printf
            "  drift @%d: distance %.4f, (sp,st) (%.3f,%.3f) -> (%.3f,%.3f)\n\
            \    exact ADD expectation re-evaluated: %.3f fF in %.1f us (no \
             rebuild)\n\
            \    Lin refit from %d samples in %.1f us: rms %.4f -> %.4f\n"
            ev.Stream.Pipeline.drift.Stream.Drift.at
            ev.Stream.Pipeline.drift.Stream.Drift.distance
            ev.Stream.Pipeline.drift.Stream.Drift.ref_sp
            ev.Stream.Pipeline.drift.Stream.Drift.ref_st
            ev.Stream.Pipeline.drift.Stream.Drift.cur_sp
            ev.Stream.Pipeline.drift.Stream.Drift.cur_st
            ev.Stream.Pipeline.expectation
            (ev.Stream.Pipeline.expectation_seconds *. 1e6)
            ev.Stream.Pipeline.refit_samples
            (ev.Stream.Pipeline.refit_seconds *. 1e6)
            ev.Stream.Pipeline.lin_rms_before ev.Stream.Pipeline.lin_rms_after)
        o.Stream.Pipeline.events;
      Printf.printf
        "  %d drift events, %d quarantined, %d shed, %d checkpoints (%d \
         failed), %d flush retries, %.2fs\n"
        (List.length o.Stream.Pipeline.events)
        o.Stream.Pipeline.quarantined o.Stream.Pipeline.sheds
        o.Stream.Pipeline.checkpoints o.Stream.Pipeline.checkpoint_failures
        o.Stream.Pipeline.ingest_retries o.Stream.Pipeline.wall_seconds;
      (match o.Stream.Pipeline.stopped with
      | Some e ->
        Printf.printf "  stopped early: %s\n" (Guard.Error.to_string e)
      | None -> ());
      let write path json =
        Journal.write_atomic path (Json.to_string json ^ "\n")
      in
      Option.iter
        (fun p -> write p (Stream.Pipeline.report_json o))
        report_out;
      Option.iter
        (fun p -> write p (Stream.Pipeline.stats_json o))
        stats_out
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Consume a vector stream with online statistics, drift detection \
          and self-healing re-estimation from the already-built ADD.")
    Term.(
      const run $ trace_term $ order_term $ circuit_arg $ max_size_arg
      $ phases_arg $ vectors_file_arg $ weight_arg $ drift_term
      $ checkpoint_arg $ checkpoint_every_arg $ resume_arg $ shed_arg
      $ queue_arg $ sim_every_arg $ throttle_arg $ seed_arg $ jobs_arg
      $ report_out_arg $ stats_out_arg $ budget_term)

let query_cmd =
  let run address request =
    match
      Serve.Client.with_connection address (fun c ->
          Serve.Client.request_raw c request)
    with
    | Ok response -> print_endline response
    | Error e -> fail_with e
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send one protocol request to a running server and print the \
          response JSON.")
    Term.(const run $ address_term $ request_arg)

let () =
  let doc = "characterization-free behavioral power modeling (DATE 1998)" in
  let info = Cmd.info "cfpm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; info_cmd; build_cmd; fig7a_cmd; fig7b_cmd; table1_cmd;
            throughput_cmd; worst_cmd; import_cmd; dot_cmd; blif_cmd;
            store_cmd; serve_cmd; query_cmd; stream_cmd;
          ]))

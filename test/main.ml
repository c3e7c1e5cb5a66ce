let () =
  (* The SIGKILL chaos test re-execs this binary as its victim process
     (fork is unavailable once domains have been spawned). *)
  match Sys.getenv_opt Test_stream.child_env_var with
  | Some path -> Test_stream.child_main path
  | None -> ()

let () =
  Alcotest.run "cfpm"
    [
      ("guard", Test_guard.suite);
      ("json", Test_json.suite);
      ("obs", Test_obs.suite);
      ("bdd", Test_bdd.suite);
      ("add", Test_add.suite);
      ("perf", Test_perf.suite);
      ("kernel", Test_kernel.suite);
      ("parallel", Test_parallel.suite);
      ("journal", Test_journal.suite);
      ("durable", Test_durable.suite);
      ("add-stats", Test_add_stats.suite);
      ("approx", Test_approx.suite);
      ("cell", Test_cell.suite);
      ("circuit", Test_circuit.suite);
      ("blif", Test_blif.suite);
      ("netlist-errors", Test_netlist_errors.suite);
      ("sim", Test_sim.suite);
      ("stimulus", Test_stimulus.suite);
      ("linalg", Test_linalg.suite);
      ("circuits", Test_circuits.suite);
      ("model", Test_model.suite);
      ("compiled", Test_compiled.suite);
      ("experiments", Test_experiments.suite);
      ("misc", Test_misc.suite);
      ("reorder", Test_reorder.suite);
      ("analysis", Test_analysis.suite);
      ("golden", Test_golden.suite);
      ("pbo", Test_pbo.suite);
      ("store", Test_store.suite);
      ("serve", Test_serve.suite);
      ("stream", Test_stream.suite);
    ]

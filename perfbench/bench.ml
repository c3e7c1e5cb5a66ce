(* Entry point: `bench.exe --workload W --seed N --seconds S --trace 0|1'.
   Prints a host fingerprint line, then (last line of stdout) the result
   object {correct, attempted, failed, metrics}.  See README.md. *)

open Common

let workloads = [ "serve"; "query"; "stream" ]

let run_workload p =
  match p.workload with
  | "serve" -> W_serve.run W_serve.Serve p
  | "query" -> W_serve.run W_serve.Query p
  | "stream" -> W_stream.run p
  | w -> invalid_arg ("unknown workload " ^ w)

let metric value unit_ = Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ]

let end_to_end o =
  let w = o.window in
  [
    ("setup_s", metric o.setup_s "s");
    ("items_per_s", metric w.items_per_s "1/s");
    ("latency_p50_ms", metric (Perfkit.Stat.percentile ~p:50.0 w.latencies_ms) "ms");
    ("latency_p99_ms", metric (Perfkit.Stat.percentile ~p:99.0 w.latencies_ms) "ms");
    ("peak_rss_mb", metric w.rss_mb "MiB");
  ]

let fingerprint p commit cpu =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("cfpm_jobs", Json.Int p.jobs);
      ("workload", Json.String p.workload);
      ("seed", Json.Int p.seed);
      ("seconds", Json.Float p.seconds);
      ("trace", Json.Bool p.trace);
      ("commit", Json.String commit);
      ("cpu", Json.String cpu);
    ]

let result ~tally metrics =
  let attempted = Perfkit.Tally.attempted tally and failed = Perfkit.Tally.failed tally in
  Json.Obj
    [
      ("correct", Json.Bool (failed = 0 && attempted > 0));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", Json.Obj metrics);
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let commit = ref "unknown" and cpu = ref "none" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1  per-layer (traced) run");
      ("--commit", Arg.Set_string commit, "ID  source identity for the fingerprint");
      ("--cpu", Arg.Set_string cpu, "N  the CPU the run is pinned to, for the fingerprint");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  let p =
    { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
      jobs = Parallel.Pool.default_jobs () }
  in
  print_endline (Json.to_string ~pretty:false (Json.Obj [ ("host", fingerprint p !commit !cpu) ]));
  let code =
    match
      if p.trace then Layers.run p
      else
        let o = run_workload p in
        List.iter (fun n -> prerr_endline ("bench: failed: " ^ n)) (Perfkit.Tally.notes o.tally);
        let l = o.window.latencies_ms in
        Printf.eprintf "bench: %d samples (%d beyond p99), ms at p50 %.3f p90 %.3f p95 %.3f p98 %.3f p99 %.3f max %.3f\n"
          (Array.length l) (Perfkit.Stat.beyond ~p:99.0 (Array.length l))
          (Perfkit.Stat.percentile ~p:50.0 l) (Perfkit.Stat.percentile ~p:90.0 l)
          (Perfkit.Stat.percentile ~p:95.0 l) (Perfkit.Stat.percentile ~p:98.0 l)
          (Perfkit.Stat.percentile ~p:99.0 l) (Perfkit.Stat.percentile ~p:100.0 l);
        (o.tally, end_to_end o)
    with
    | tally, metrics ->
      print_endline (Json.to_string ~pretty:false (result ~tally metrics));
      0
    | exception e ->
      prerr_endline ("bench: " ^ Printexc.to_string e);
      1
  in
  Perfkit.Proc.kill_all ();
  cleanup ();
  exit code

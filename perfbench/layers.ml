(* The traced run (`--trace 1').  Two parts:

   - the chosen workload, half its window untraced and half traced (the
     in-process spans, or `cfpm serve --trace'), which gives the tracing
     overhead and the self time per span name of that workload;
   - the layer suite, the same on every workload, which measures each
     per-layer metric named in README.md: a traced Table 1 pass, the
     serve and query request paths replayed in process and against a
     server at one and two connections, the store and analysis calls,
     and the stream pipeline next to a chunked replay of its parts.

   No span or counter is added inside the libraries: what they do not
   trace is timed here by calling the same public functions. *)

open Common

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ms_of_s s = 1000.0 *. s

let reps n f = median_of (List.init n (fun _ -> snd (time f)))

let spans_of_json j = Perfkit.Spans.self_times (Perfkit.Spans.events_of_json j)

let traced f =
  Obs.Trace.reset ();
  Obs.Trace.enable ();
  let v = Fun.protect ~finally:Obs.Trace.disable f in
  (v, spans_of_json (Obs.Trace.export ()))

let counter name = float_of_int (Option.value (List.assoc_opt name (Obs.Metrics.snapshot_all ())) ~default:0)

(* --- Table 1: netlist, dd, powermodel.reorder, gatesim.validate ----- *)

let table1_layers p tally =
  let ins = Table1_pass.inputs () in
  let parse_ms = 1000.0 *. Table1_pass.parse_s ins in
  Obs.Metrics.reset ();
  let rows, spans =
    traced (fun () -> List.map (fun i -> (i, Table1_pass.run_row p (Table1_pass.blif_entry i))) ins)
  in
  (* the counters cover the seven rows only: read them before the
     reorder builds and the row check below add to them *)
  let hits = counter "dd.cache_hits" and misses = counter "dd.cache_misses" in
  let passes = counter "dd.collapse_passes" and peak = counter "dd.peak_add_nodes" in
  let self n = Perfkit.Spans.self_s spans n in
  (* the rows build under the declared order; reordering is timed on the
     same seven average models built under info+sift *)
  let (), reorder_spans =
    traced (fun () ->
        List.iter
          (fun i ->
            ignore
              (Powermodel.Model.build ~reorder:Powermodel.Reorder.Info_then_sift
                 ~max_size:i.Table1_pass.entry.Circuits.Suite.max_avg (Table1_pass.parse i)))
          ins)
  in
  Table1_pass.check p tally ins rows;
  ( [
      m "netlist.blif_parse_ms" "ms" parse_ms;
      m "dd.bdd_build_s" "s" (self "bdd_build");
      m "dd.bdd_shift_s" "s" (self "bdd_shift");
      m "dd.add_compose_self_s" "s" (self "add_compose");
      m "dd.collapse_s" "s" (self "collapse");
      m "dd.final_clamp_s" "s" (self "final_clamp");
      m "dd.compile_s" "s" (self "compile");
      m "dd.cache_hit_ratio" "ratio" (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      m "dd.collapse_passes" "count" passes;
      m "dd.peak_add_nodes" "count" peak;
      m "powermodel.reorder_s" "s" (Perfkit.Spans.self_s reorder_spans "reorder");
      m "gatesim.validate_s" "s" (Table1_pass.validate_s rows);
    ],
    spans )

(* --- serve: the eval_batch path, in process and over the socket ----- *)

let transitions_of json =
  match Json.member "transitions" json with
  | Some (Json.List l) ->
    List.filter_map
      (function
        | Json.List [ Json.String a; Json.String b ] ->
          let bits s = Array.init (String.length s) (fun i -> s.[i] = '1') in
          Some (Powermodel.Vars.env ~x_i:(bits a) ~x_f:(bits b))
        | _ -> None)
      l
    |> Array.of_list
  | _ -> [||]

let p50 a = Perfkit.Stat.percentile ~p:50.0 a

(* p50 at one connection, then at two, for [seconds] each *)
let two_loads s deck ~seconds ~per_request =
  let one conns =
    let tally = Perfkit.Tally.create () in
    let w =
      W_serve.load_window ~min_samples:0 s ~connections:conns ~seconds ~per_request tally deck
    in
    (p50 w.latencies_ms, tally)
  in
  let p1, t1 = one 1 in
  let p2, t2 = one 2 in
  Perfkit.Tally.merge ~into:t1 t2;
  (p1, p2, t1)

let session_seconds = 2.0

(* Transport alone: each request frame and its response frame through
   Protocol.write_frame / read_frame over a Unix socket pair, answered
   by an echo thread.  Median round trip, ms. *)
let transport_ms frames responses =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let answers = Array.of_list responses in
  let echo =
    Thread.create
      (fun () ->
        let rec loop i =
          match Serve.Protocol.read_frame server with
          | Serve.Protocol.Frame _ ->
            Serve.Protocol.write_frame server answers.(i mod Array.length answers);
            loop (i + 1)
          | Serve.Protocol.Closed | Serve.Protocol.Stopped -> ()
        in
        loop 0)
      ()
  in
  let times =
    List.concat_map
      (fun _ ->
        List.map
          (fun f ->
            snd
              (time (fun () ->
                   Serve.Protocol.write_frame client f;
                   ignore (Serve.Protocol.read_frame client))))
          frames)
      [ 1; 2; 3 ]
  in
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  Thread.join echo;
  Unix.close client;
  Unix.close server;
  ms_of_s (median_of times)

let serve_layers p tally =
  let s, _ = W_serve.setup ~reps:1 ~models:W_serve.serve_models "layers-serve" in
  Fun.protect
    ~finally:(fun () -> W_serve.stop_server s)
    (fun () ->
      let requests = List.map snd (W_serve.serve_requests p.seed) in
      let h = W_serve.reference_handler s.dir in
      let frames = List.map Serve.Protocol.render requests in
      ignore (Serve.Handler.handle_string h (List.hd frames));
      let decode = ref [] and handle = ref [] and encode = ref [] and responses = ref [] in
      for _ = 1 to 3 do
        List.iter
          (fun frame ->
            let req, d = time (fun () -> Result.get_ok (Json.of_string frame)) in
            let resp, hd = time (fun () -> Serve.Handler.handle h req) in
            let text, e = time (fun () -> Serve.Protocol.render resp) in
            responses := text :: !responses;
            decode := d :: !decode;
            handle := hd :: !handle;
            encode := e :: !encode)
          frames
      done;
      let responses = List.rev !responses in
      let entry = ok_or_die "load" (Serve.Cache.find_or_load (Serve.Handler.cache h) W_serve.serve_model) in
      let program = Powermodel.Model.compiled_program entry.Serve.Cache.loaded.Store.compiled in
      let eval_ms =
        median_of
          (List.map
             (fun req ->
               let envs = transitions_of req in
               let packed = Dd.Compiled.pack program envs in
               ms_of_s
                 (snd
                    (time (fun () ->
                         Dd.Compiled.eval_batch ~jobs:p.jobs program ~inputs:packed ~n:(Array.length envs)))))
             requests)
      in
      let decode_ms = ms_of_s (median_of !decode)
      and handler_ms = ms_of_s (median_of !handle)
      and encode_ms = ms_of_s (median_of !encode) in
      let deck = W_serve.deck_of s.dir (W_serve.serve_requests p.seed) in
      let p1, p2, t =
        two_loads s deck ~seconds:session_seconds ~per_request:W_serve.batch_transitions
      in
      Perfkit.Tally.merge ~into:tally t;
      let mean l = List.fold_left (fun acc f -> acc + String.length f) 0 l / List.length l in
      [
        m "dd.eval_batch_ms" "ms" eval_ms;
        m "serve.protocol_decode_ms" "ms" decode_ms;
        m "serve.handler_ms" "ms" handler_ms;
        m "serve.protocol_encode_ms" "ms" encode_ms;
        m "serve.transport_ms" "ms" (transport_ms frames responses);
        m "serve.wait_ms" "ms" (p2 -. p1);
        m "serve.request_bytes" "bytes" (float_of_int (mean frames));
        m "serve.response_bytes" "bytes" (float_of_int (mean responses));
      ])

(* --- query: cache behaviour, store, analysis and PBO ----------------- *)

let query_layers p tally =
  let s, _ =
    W_serve.setup ~reps:1 ~models:W_serve.query_models ~cache_mb:W_serve.query_cache_mb
      "layers-query"
  in
  let wait, cache =
    Fun.protect
      ~finally:(fun () -> W_serve.stop_server s)
      (fun () ->
        let deck = W_serve.deck_of s.dir (W_serve.query_requests p.seed) in
        let p1, p2, t = two_loads s deck ~seconds:session_seconds ~per_request:1 in
        Perfkit.Tally.merge ~into:tally t;
        let stats = W_serve.request_ok s (Json.Obj [ ("id", Json.Int 0); ("op", Json.String "stats") ]) in
        let cache =
          Option.bind (Json.member "result" stats) (Json.member "cache") |> Option.value ~default:Json.Null
        in
        (p2 -. p1, cache))
  in
  let field k = Option.bind (Json.member k cache) Json.to_float |> Option.value ~default:0.0 in
  let hits = field "hits" and misses = field "misses" in
  let path f = Filename.concat s.dir f in
  let x2 = ok_or_die "load" (Store.load (path "x2.cfpm")) in
  let load_s = reps 3 (fun () -> ignore (Store.load (path "x2.cfpm"))) in
  let verify_s = reps 3 (fun () -> ignore (Store.verify (path "x2.cfpm"))) in
  let save_s = reps 3 (fun () -> ignore (Store.save ~path:(path "copy.cfpm") x2.Store.model)) in
  let cm85 = (ok_or_die "load" (Store.load (path "cm85.cfpm"))).Store.model in
  let prng = Stimulus.Prng.create p.seed in
  let expectation_s =
    reps 20 (fun () ->
        let sp = 0.05 +. (0.9 *. Stimulus.Prng.float prng) in
        let st = Stimulus.Generator.feasible_st ~sp (0.05 +. (0.9 *. Stimulus.Prng.float prng)) in
        ignore (Powermodel.Analysis.expected_capacitance cm85 ~sp ~st))
  in
  let worst_s = reps 5 (fun () -> ignore (Powermodel.Adversarial.worst_add cm85)) in
  let sens_s = reps 3 (fun () -> ignore (Powermodel.Analysis.toggle_sensitivities cm85)) in
  let circuit = (entry "cm85").Circuits.Suite.build () in
  let conflicts = ref 0 in
  let pbo_s =
    reps 3 (fun () ->
        match Powermodel.Adversarial.worst_pbo circuit with
        | Ok { Powermodel.Adversarial.stats = Some st; _ } -> conflicts := st.Pbo.Solver.conflicts
        | Ok _ -> ()
        | Error e -> Perfkit.Tally.fail tally ("pbo: " ^ Guard.Error.to_string e))
  in
  [
    m "serve.query_wait_ms" "ms" wait;
    m "serve.cache_hit_ratio" "ratio" (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
    m "serve.cache_loads" "count" misses;
    m "store.load_ms" "ms" (ms_of_s load_s);
    m "store.verify_ms" "ms" (ms_of_s verify_s);
    m "store.save_ms" "ms" (ms_of_s save_s);
    m "powermodel.expectation_ms" "ms" (ms_of_s expectation_s);
    m "powermodel.worst_add_ms" "ms" (ms_of_s worst_s);
    m "powermodel.sensitivities_ms" "ms" (ms_of_s sens_s);
    m "pbo.worst_ms" "ms" (ms_of_s pbo_s);
    m "pbo.conflicts" "count" (float_of_int !conflicts);
  ]

(* --- stream: the pipeline and a chunked replay of its parts ---------- *)

let stream_layers p tally =
  let su, _ = W_stream.setup_once () in
  let o, run_s = time (fun () -> W_stream.run_once ~jobs:p.jobs p su) in
  (* the drift count reported must be the one the phases fix *)
  (match W_stream.pinned o with
  | [] -> Perfkit.Tally.ok tally
  | notes -> Perfkit.Tally.fail tally ("layer stream run: " ^ String.concat "; " notes));
  let events = o.Stream.Pipeline.events in
  let sum f = List.fold_left (fun acc e -> acc +. f e) 0.0 events in
  let refit_s = sum (fun e -> e.Stream.Pipeline.refit_seconds) in
  let expectation_s = sum (fun e -> e.Stream.Pipeline.expectation_seconds) in
  let source = W_stream.source p su in
  let compiled = Powermodel.Model.compile su.W_stream.model in
  let power ~x_i ~x_f = Powermodel.Model.switched_capacitance_compiled compiled ~x_i ~x_f in
  let stats = Stream.Stats.create ~bits:su.bits () in
  let drift = Stream.Drift.create ~bits:su.bits () in
  let source_s = ref 0.0 and consume_s = ref 0.0 and drift_s = ref 0.0 and label_s = ref 0.0 in
  let prev = ref None and transitions = ref 0 in
  let add acc f = acc := !acc +. snd (time f) in
  let rec loop () =
    let chunk, dt =
      time (fun () ->
          let rec take n acc =
            if n = 0 then acc
            else
              match Stream.Source.next source with
              | Some (Stream.Source.Vector v) -> take (n - 1) (v :: acc)
              | Some (Stream.Source.Malformed _) -> take n acc
              | None -> acc
          in
          Array.of_list (List.rev (take Stream.Pipeline.flush_quantum [])))
    in
    source_s := !source_s +. dt;
    if Array.length chunk > 0 then begin
      add consume_s (fun () -> Stream.Stats.consume ~jobs:p.jobs ~power stats chunk);
      add drift_s (fun () -> Array.iter (fun v -> ignore (Stream.Drift.observe drift v)) chunk);
      add label_s (fun () ->
          Array.iter
            (fun v ->
              (match !prev with
              | Some u ->
                if !transitions mod Stream.Pipeline.default_config.sim_every = 0 then
                  ignore (Gatesim.Simulator.switched_capacitance su.sim u v);
                incr transitions
              | None -> ());
              prev := Some v)
            chunk);
      loop ()
    end
  in
  loop ();
  let parts = !source_s +. !consume_s +. !drift_s +. !label_s +. refit_s +. expectation_s in
  [
    m "stimulus.source_s" "s" !source_s;
    m "stream.stats_consume_s" "s" !consume_s;
    m "stream.drift_s" "s" !drift_s;
    m "gatesim.label_s" "s" !label_s;
    m "stream.refit_s" "s" refit_s;
    m "stream.expectation_s" "s" expectation_s;
    m "stream.ingest_overhead_s" "s" (run_s -. parts);
    m "stream.drift_events" "count" (float_of_int (List.length events));
  ]

(* --- the workload itself, untraced then traced, answers checked ------- *)

let overhead p tally =
  let half = p.seconds /. 2.0 in
  let server_spans (s : W_serve.server) =
    match W_serve.server_trace s with Some j -> spans_of_json j | None -> []
  in
  let pair kind =
    let run trace = W_serve.run_full ~reps:1 ~trace ~seconds:half ~min_samples:0 kind p in
    let (u, _), (t, s) = (run false, run true) in
    Perfkit.Tally.merge ~into:tally u.tally;
    Perfkit.Tally.merge ~into:tally t.tally;
    (u.window.items_per_s, t.window.items_per_s, server_spans s)
  in
  match p.workload with
  | "serve" -> pair W_serve.Serve
  | "query" -> pair W_serve.Query
  | _ ->
    let su, _ = W_stream.setup_once () in
    let u_runs, u = W_stream.window p su ~seconds:half in
    let (t_runs, t), spans = traced (fun () -> W_stream.window p su ~seconds:half) in
    W_stream.check p su tally (u_runs @ t_runs);
    (u.items_per_s, t.items_per_s, spans)

let print_spans title spans =
  Printf.printf "spans %s (name, count, total s, self s):\n" title;
  List.iter
    (fun (name, t) ->
      Printf.printf "  %-24s %8d %12.6f %12.6f\n" name t.Perfkit.Spans.count t.total_s t.self_s)
    spans

(* Each group starts from a compacted heap, and the serve group, whose
   in-process replay stands for work the server does, runs first: what
   the workload or an earlier group leaves alive (a Table 1 pass grows
   the heap past 200 MB, the query reference holds x2) slows the replay
   with major-GC work the server, with its small heap, never does. *)
let compacted f =
  Gc.compact ();
  f ()

let run p =
  (* every span of a traced Table 1 pass must fit the ring *)
  Obs.Trace.set_capacity (1 lsl 20);
  let tally = Perfkit.Tally.create () in
  let serve = serve_layers p tally in
  let untraced, traced_rate, w_spans = compacted (fun () -> overhead p tally) in
  let t1, t1_spans = compacted (fun () -> table1_layers p tally) in
  let layers =
    t1 @ serve
    @ compacted (fun () -> query_layers p tally)
    @ compacted (fun () -> stream_layers p tally)
    @ [
        m "trace.overhead_per_s" "1/s" (traced_rate -. untraced);
        m "trace.overhead_pct" "%" (100.0 *. (untraced -. traced_rate) /. untraced);
      ]
  in
  Printf.printf "workload %s: %.6g items/s untraced, %.6g traced (overhead %.2f%%)\n" p.workload
    untraced traced_rate
    (100.0 *. (untraced -. traced_rate) /. untraced);
  print_spans p.workload w_spans;
  print_spans "table1 layer pass" t1_spans;
  Printf.printf "layers:\n";
  List.iter (fun l -> Printf.printf "  %-28s %14.6f %s\n" l.name l.value l.unit_) layers;
  if Obs.Trace.dropped () > 0 then Printf.printf "warning: %d trace events dropped\n" (Obs.Trace.dropped ());
  List.iter (fun n -> prerr_endline ("bench: failed: " ^ n)) (Perfkit.Tally.notes tally);
  ( tally,
    List.map
      (fun l -> (l.name, Json.Obj [ ("value", Json.Float l.value); ("unit", Json.String l.unit_) ]))
      layers )

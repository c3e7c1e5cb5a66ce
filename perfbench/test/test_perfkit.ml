(* Tests of the benchmark's own helpers: percentile ranks and the p99
   sample rule, self time from nested spans, and failure accounting. *)

let close = Alcotest.float 1e-9

(* --- percentiles --------------------------------------------------- *)

let test_rank () =
  let rank = Perfkit.Stat.rank in
  Alcotest.(check int) "p50 of 1" 1 (rank ~p:50.0 1);
  Alcotest.(check int) "p50 of 10" 5 (rank ~p:50.0 10);
  Alcotest.(check int) "p99 of 100" 99 (rank ~p:99.0 100);
  Alcotest.(check int) "p99 of 1000" 990 (rank ~p:99.0 1000);
  Alcotest.(check int) "p99 of 1001" 991 (rank ~p:99.0 1001);
  Alcotest.(check int) "p100 is the max" 7 (rank ~p:100.0 7)

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50" 50.0 (Perfkit.Stat.percentile ~p:50.0 a);
  Alcotest.check close "p99" 99.0 (Perfkit.Stat.percentile ~p:99.0 a);
  Alcotest.check close "median" 50.0 (Perfkit.Stat.median a);
  Alcotest.check close "input untouched" 100.0 a.(0)

let test_samples_needed () =
  Alcotest.(check int) "p99 with 10 beyond" 1000 (Perfkit.Stat.samples_needed ~p:99.0 ~k:10);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Perfkit.Stat.beyond ~p:99.0 1000);
  Alcotest.(check int) "beyond p99 of 999" 9 (Perfkit.Stat.beyond ~p:99.0 999);
  Alcotest.(check int) "p50 with 1 beyond" 2 (Perfkit.Stat.samples_needed ~p:50.0 ~k:1)

(* --- span self time ------------------------------------------------ *)

let ev ?(tid = 1) name ts dur =
  Json.Obj
    [ ("name", Json.String name); ("ph", Json.String "X"); ("ts", Json.Float ts);
      ("dur", Json.Float dur); ("pid", Json.Int 1); ("tid", Json.Int tid) ]

let test_self_time () =
  (* a [0,100] holds b [10,40] (which holds c [20,30]) and d [50,60];
     e on another thread overlaps a in time but is nobody's child *)
  let trace =
    Json.Obj
      [ ( "traceEvents",
          Json.List
            [ ev "a" 0.0 100.0; ev "b" 10.0 30.0; ev "c" 20.0 10.0; ev "d" 50.0 10.0;
              ev ~tid:2 "e" 0.0 50.0; ev "d" 70.0 10.0 ] ) ]
  in
  let t = Perfkit.Spans.self_times (Perfkit.Spans.events_of_json trace) in
  let self n = Perfkit.Spans.self_s t n *. 1e6 and total n = Perfkit.Spans.total_s t n *. 1e6 in
  Alcotest.check close "a self" 50.0 (self "a");
  Alcotest.check close "a total" 100.0 (total "a");
  Alcotest.check close "b self" 20.0 (self "b");
  Alcotest.check close "c self" 10.0 (self "c");
  Alcotest.check close "d self, two spans" 20.0 (self "d");
  Alcotest.check close "e self" 50.0 (self "e");
  Alcotest.(check int) "d count" 2 (List.assoc "d" t).Perfkit.Spans.count

let test_self_time_from_trace () =
  (* the real tracer's export: the child's time leaves the parent *)
  Obs.Trace.reset ();
  Obs.Trace.enable ();
  Obs.Trace.with_span "outer" (fun () ->
      Obs.Trace.with_span "inner" (fun () -> Unix.sleepf 0.02));
  Obs.Trace.disable ();
  let t = Perfkit.Spans.self_times (Perfkit.Spans.events_of_json (Obs.Trace.export ())) in
  Alcotest.(check bool) "inner holds the sleep" true (Perfkit.Spans.self_s t "inner" >= 0.02);
  Alcotest.(check bool) "outer self is small" true (Perfkit.Spans.self_s t "outer" < 0.01)

(* --- failure accounting -------------------------------------------- *)

let test_wrong_bytes () =
  let t = Perfkit.Tally.create () in
  Perfkit.Tally.check t ~what:"ok" ~expected:"{\"id\":1}" (Ok "{\"id\":1}");
  Perfkit.Tally.check t ~what:"wrong" ~expected:"{\"id\":1}" (Ok "{\"id\":2}");
  Perfkit.Tally.check t ~what:"refused" ~expected:"x" (Error "connection refused");
  Alcotest.(check int) "attempted" 3 (Perfkit.Tally.attempted t);
  Alcotest.(check int) "failed" 2 (Perfkit.Tally.failed t);
  Alcotest.(check int) "notes" 2 (List.length (Perfkit.Tally.notes t))

let temp_dir () =
  let d = Filename.temp_file "perfkit" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* The artifact is corrupted before the reference is taken, as a bad
   Store.save would leave it: server and reference then give the same
   error bytes, and the answer must still count as one failure. *)
let test_corrupt_artifact () =
  let dir = temp_dir () in
  let path = Filename.concat dir "decod.cfpm" in
  let circuit =
    (Option.get (Circuits.Suite.find "decod")).Circuits.Suite.build ()
  in
  (match Store.save ~path (Powermodel.Model.build circuit) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Guard.Error.to_string e));
  let bytes = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  let mid = Bytes.length bytes / 2 in
  Bytes.set bytes mid (Char.chr (Char.code (Bytes.get bytes mid) lxor 0x5a));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
  let request = {|{"id":1,"op":"expectation","model":"decod.cfpm","sp":0.5,"st":0.3}|} in
  let handler () = Serve.Handler.create ~jobs:1 (Serve.Cache.create ~root:dir ()) in
  let r =
    Perfkit.Loadgen.request ~what:"expectation" ~bytes:request
      ~expected:(Serve.Handler.handle_string (handler ()) request)
  in
  let actual = Serve.Handler.handle_string (handler ()) request in
  Alcotest.(check string) "same error bytes" r.Perfkit.Loadgen.expected actual;
  let t = Perfkit.Tally.create () in
  Perfkit.Loadgen.check t r (Ok actual);
  Alcotest.(check int) "attempted" 1 (Perfkit.Tally.attempted t);
  Alcotest.(check int) "failed" 1 (Perfkit.Tally.failed t);
  Sys.remove path;
  Unix.rmdir dir

let test_refused_connection () =
  (* nobody listens: every attempt is a failed operation, the window
     still closes on time *)
  let dir = temp_dir () in
  let t = Perfkit.Tally.create () in
  let deck =
    [| Perfkit.Loadgen.request ~what:"ping" ~bytes:{|{"id":1,"op":"ping"}|}
         ~expected:{|{"id":1,"ok":true,"result":"pong"}|} |]
  in
  let r =
    Perfkit.Loadgen.run ~address:(`Unix (Filename.concat dir "none.sock")) ~connections:2
      ~seconds:0.2 t deck
  in
  Alcotest.(check int) "no answers" 0 (Array.length r.Perfkit.Loadgen.latencies_ms);
  Alcotest.(check bool) "failures counted" true (Perfkit.Tally.failed t > 0);
  Alcotest.(check int) "every attempt failed" (Perfkit.Tally.attempted t) (Perfkit.Tally.failed t);
  Unix.rmdir dir

let () =
  Alcotest.run "perfkit"
    [
      ( "stat",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond p99" `Quick test_samples_needed;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "self time from Obs.Trace" `Quick test_self_time_from_trace;
        ] );
      ( "tally",
        [
          Alcotest.test_case "wrong bytes and refusal" `Quick test_wrong_bytes;
          Alcotest.test_case "corrupted artifact" `Quick test_corrupt_artifact;
          Alcotest.test_case "refused connection" `Quick test_refused_connection;
        ] );
    ]

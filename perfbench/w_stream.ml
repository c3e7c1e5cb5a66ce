(* Workload `stream': 10^6 vectors in two Markov phases through
   Stream.Pipeline.run in process, labelled at gate level on every 16th
   transition. *)

open Common

let vectors = 1_000_000
let circuit_name = "cm85"

let phases =
  [
    { Stream.Source.sp = 0.5; st = 0.05; count = vectors / 2 };
    { Stream.Source.sp = 0.85; st = 0.4; count = vectors - (vectors / 2) };
  ]

type setup = { model : Powermodel.Model.t; sim : Gatesim.Simulator.t; bits : int }

(* What a user pays before the first vector: the model build (the
   Table 1 MAX for cm85) and the gate-level simulator for the labels. *)
let setup_once () =
  time (fun () ->
      let e = entry circuit_name in
      let circuit = e.Circuits.Suite.build () in
      {
        model = Powermodel.Model.build ~max_size:e.Circuits.Suite.max_avg circuit;
        sim = Gatesim.Simulator.create circuit;
        bits = Netlist.Circuit.input_count circuit;
      })

let source p su = ok_or_die "source" (Stream.Source.generator ~seed:p.seed ~bits:su.bits phases)

let config ?(jobs = 1) ?(queue_capacity = Stream.Pipeline.default_config.queue_capacity) () =
  { Stream.Pipeline.default_config with jobs = Some jobs; queue_capacity }

let run_once ?jobs ?queue_capacity p su =
  ok_or_die "stream"
    (Stream.Pipeline.run ~simulator:su.sim (config ?jobs ?queue_capacity ()) ~model:su.model
       ~source:(source p su))

let digest o = Digest.to_hex (Digest.string (Json.to_string ~pretty:false (Stream.Pipeline.stats_json o)))

let summary o = (digest o, List.length o.Stream.Pipeline.events, Stream.Stats.vectors o.Stream.Pipeline.stats)

let window p su ~seconds =
  let t0 = now () in
  let runs = ref [] in
  while now () -. t0 < seconds do
    let o, dt =
      time (fun () ->
          match run_once ~jobs:p.jobs p su with o -> Ok o | exception e -> Error (Printexc.to_string e))
    in
    runs := (o, dt) :: !runs
  done;
  let runs = List.rev !runs in
  (* a run is one operation; the rate rests on the median run, so one
     slow stretch of the host does not move it *)
  ( runs,
    {
      items_per_s = float_of_int vectors /. median_of (List.map snd runs);
      latencies_ms = Array.of_list (List.map (fun (_, dt) -> 1000.0 *. dt) runs);
      rss_mb = self_rss ();
    } )

(* What the phases fix whatever the seed: exactly one drift event,
   closing one of the first two windows after the switch, judged against
   a first-phase reference window; and whole-stream means halfway
   between the phases (equal halves).  The second phase asks st = 0.4
   at sp = 0.85, above the largest feasible st there, 2 min(sp, 1 - sp)
   = 0.3; the source clamps it, and so do the expected values.  The
   event's window can straddle
   the switch, so its (sp, st) is compared with the mix of the two
   phases it holds.  The tolerances are a few standard deviations of a
   2048-vector window of the Markov source, whose lag-1 autocorrelation
   at st = 0.05 inflates the sp variance about 19 times. *)
let window_tol = 0.06
let stream_tol = 0.02

let pinned o =
  let p1, p2 = match phases with [ a; b ] -> (a, b) | _ -> assert false in
  let st (ph : Stream.Source.phase) = Stimulus.Generator.feasible_st ~sp:ph.sp ph.st in
  let switch = p1.Stream.Source.count and w = Stream.Drift.default_config.window in
  let near what v v0 tol =
    if Float.abs (v -. v0) <= tol then []
    else [ Printf.sprintf "%s %.4f, expected %.4f +- %.2f" what v v0 tol ]
  in
  let half a b = (a +. b) /. 2.0 in
  let whole =
    near "stream mean sp" (Stream.Stats.mean_sp o.Stream.Pipeline.stats) (half p1.sp p2.sp) stream_tol
    @ near "stream mean st" (Stream.Stats.mean_st o.stats) (half (st p1) (st p2)) stream_tol
  in
  match o.Stream.Pipeline.events with
  | [ e ] ->
    let d = e.Stream.Pipeline.drift in
    if d.Stream.Drift.at <= switch || d.at > switch + (2 * w) then
      [ Printf.sprintf "drift at vector %d, expected in (%d, %d]" d.at switch (switch + (2 * w)) ]
    else
      let f = Float.min 1.0 (float_of_int (d.at - switch) /. float_of_int w) in
      let mix a b = a +. (f *. (b -. a)) in
      near "reference window sp" d.ref_sp p1.sp window_tol
      @ near "reference window st" d.ref_st (st p1) window_tol
      @ near "drift window sp" d.cur_sp (mix p1.sp p2.sp) window_tol
      @ near "drift window st" d.cur_st (mix (st p1) (st p2)) window_tol
      @ whole
  | es -> Printf.sprintf "%d drift events, expected 1" (List.length es) :: whole

let describe o =
  let ev =
    List.map
      (fun e ->
        let d = e.Stream.Pipeline.drift in
        Printf.sprintf "at %d ref (%.4f, %.4f) cur (%.4f, %.4f)" d.Stream.Drift.at d.ref_sp d.ref_st
          d.cur_sp d.cur_st)
      o.Stream.Pipeline.events
  in
  Printf.sprintf "stream means (%.4f, %.4f), drift %s" (Stream.Stats.mean_sp o.Stream.Pipeline.stats)
    (Stream.Stats.mean_st o.stats) (String.concat "; " ev)

(* The reference for the seed: the same stream folded on two domains
   with a smaller ingest queue, which the pipeline guarantees is
   byte-identical in its statistics and drift events.  It must itself
   hold the pinned values above; every timed run must then match its
   digest, which covers the statistics and each event. *)
let check p su tally runs =
  let reference = run_once ~jobs:2 ~queue_capacity:1024 p su in
  prerr_endline ("bench: " ^ describe reference);
  (match pinned reference with
  | [] -> Perfkit.Tally.ok tally
  | notes -> Perfkit.Tally.fail tally ("reference: " ^ String.concat "; " notes));
  let ref_digest, ref_events, _ = summary reference in
  List.iter
    (fun (o, _) ->
      match o with
      | Error msg -> Perfkit.Tally.fail tally msg
      | Ok o ->
        let d, ev, n = summary o in
        if n <> vectors then Perfkit.Tally.fail tally (Printf.sprintf "%d vectors folded" n)
        else if ev <> ref_events then
          Perfkit.Tally.fail tally (Printf.sprintf "%d drift events, reference %d" ev ref_events)
        else Perfkit.Tally.check tally ~what:"stats_json" ~expected:ref_digest (Ok d))
    runs

let setup () =
  let runs = List.init setup_reps (fun _ -> setup_once ()) in
  (fst (List.hd (List.rev runs)), median_of (List.map snd runs))

let run p =
  let su, setup_s = setup () in
  let runs, window = window p su ~seconds:p.seconds in
  let tally = Perfkit.Tally.create () in
  check p su tally runs;
  { setup_s; window; tally }

(* The streaming fold.

   One producer thread reads the source into a bounded queue, one block
   of [Stats.shard_block] records per queue item; the calling thread
   consumes in fixed flush quanta.  Everything that can
   affect the statistics is scheduled by counts (flush quantum, drift
   windows, refit stride, checkpoint seams), so the deterministic subset
   of the outcome is a pure function of (source, config) — whatever the
   queue timing, worker count, injected faults or kill signals did to
   this particular process. *)

let m_vectors = Obs.Metrics.metric "stream.vectors"
let m_drift = Obs.Metrics.metric "stream.drift_events"
let m_checkpoints = Obs.Metrics.metric "stream.checkpoints"
let m_quarantined = Obs.Metrics.metric "stream.quarantined"

(* local: shedding depends on scheduling, not on the workload *)
let m_sheds = Obs.Metrics.metric ~local:true "stream.sheds"

type config = {
  name : string;
  weight : Weight.t;
  drift : Drift.config;
  policy : Ingest.policy;
  queue_capacity : int;
  checkpoint : string option;
  checkpoint_every : int;
  resume : bool;
  jobs : int option;
  sim_every : int;
  throttle : float;
}

let default_config =
  {
    name = "stream";
    weight = Weight.Equal;
    drift = Drift.default_config;
    policy = Ingest.Block;
    queue_capacity = 4096;
    checkpoint = None;
    checkpoint_every = 8192;
    resume = false;
    jobs = None;
    sim_every = 16;
    throttle = 0.0;
  }

type event = {
  drift : Drift.event;
  expectation : float;
  expectation_seconds : float;
  lin_rms_before : float;
  lin_rms_after : float;
  refit_seconds : float;
  refit_samples : int;
}

type outcome = {
  stats : Stats.t;
  events : event list;
  quarantined : int;
  sheds : int;
  checkpoints : int;
  checkpoint_failures : int;
  ingest_retries : int;
  drift_skipped : int;
  resumed_from : int;
  stopped : Guard.Error.t option;
  wall_seconds : float;
}

let flush_quantum = 4 * Stats.shard_block

(* --- event (de)serialization --------------------------------------- *)

(* Deterministic fields only: timings are real measurements of this
   process and are carried in the report, never in the identity
   artifact or the checkpoint. *)
let event_det_json e =
  match Drift.event_json e.drift with
  | Json.Obj members ->
    Json.Obj
      (members
      @ [
          ("expectation", Json.Float e.expectation);
          ("lin_rms_before", Json.Float e.lin_rms_before);
          ("lin_rms_after", Json.Float e.lin_rms_after);
          ("refit_samples", Json.Int e.refit_samples);
        ])
  | j -> j

let event_of_json j =
  let fail what = Error (Guard.Error.parse ("stream event: " ^ what)) in
  let flt k =
    match Option.bind (Json.member k j) Json.to_float with
    | Some v -> Ok v
    | None -> fail ("missing float " ^ k)
  in
  let int k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some v -> Ok v
    | None -> fail ("missing int " ^ k)
  in
  let ( let* ) = Result.bind in
  let* at = int "at" in
  let* distance = flt "distance" in
  let* ref_sp = flt "ref_sp" in
  let* ref_st = flt "ref_st" in
  let* cur_sp = flt "cur_sp" in
  let* cur_st = flt "cur_st" in
  let* expectation = flt "expectation" in
  let* lin_rms_before = flt "lin_rms_before" in
  let* lin_rms_after = flt "lin_rms_after" in
  let* refit_samples = int "refit_samples" in
  Ok
    {
      drift = { Drift.at; distance; ref_sp; ref_st; cur_sp; cur_st };
      expectation;
      expectation_seconds = 0.0;
      lin_rms_before;
      lin_rms_after;
      refit_seconds = 0.0;
      refit_samples;
    }

(* --- checkpoint payload -------------------------------------------- *)

let ckpt_key = "ckpt"
let ckpt_schema = "cfpm-stream-ckpt/1"

let ckpt_json ~stats ~drift ~refit ~lin ~events ~quarantined =
  Json.Obj
    [
      ("schema", Json.String ckpt_schema);
      ("records", Json.Int (Stats.vectors stats + quarantined));
      ("quarantined", Json.Int quarantined);
      ("stats", Stats.to_json stats);
      ("drift", Drift.to_json drift);
      ("refit", Refit.to_json refit);
      ( "lin",
        Json.List (Array.to_list (Array.map (fun c -> Json.Float c) lin)) );
      ("events", Json.List (List.rev_map event_det_json events) );
    ]

type restored = {
  r_stats : Stats.t;
  r_drift : Drift.t;
  r_refit : Refit.t;
  r_lin : float array;
  r_events : event list;  (** newest first, like the running accumulator *)
  r_quarantined : int;
  r_records : int;
}

let restore_of_json j =
  let fail what = Error (Guard.Error.parse ("stream checkpoint: " ^ what)) in
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "schema" j with
    | Some (Json.String s) when s = ckpt_schema -> Ok ()
    | _ -> fail "unknown schema"
  in
  let* r_records =
    match Option.bind (Json.member "records" j) Json.to_int with
    | Some v -> Ok v
    | None -> fail "missing records"
  in
  let* r_quarantined =
    match Option.bind (Json.member "quarantined" j) Json.to_int with
    | Some v -> Ok v
    | None -> fail "missing quarantined"
  in
  let* r_stats =
    match Json.member "stats" j with
    | Some s -> Stats.of_json s
    | None -> fail "missing stats"
  in
  let* r_drift =
    match Json.member "drift" j with
    | Some d -> Drift.of_json d
    | None -> fail "missing drift"
  in
  let* r_refit =
    match Json.member "refit" j with
    | Some r -> Refit.of_json r
    | None -> fail "missing refit"
  in
  let* r_lin =
    match Json.member "lin" j with
    | Some (Json.List l) -> (
      try
        Ok (Array.of_list (List.map (fun x -> Option.get (Json.to_float x)) l))
      with _ -> fail "bad lin coefficients")
    | _ -> fail "missing lin"
  in
  let* r_events =
    match Json.member "events" j with
    | Some (Json.List l) ->
      List.fold_left
        (fun acc e ->
          let* acc = acc in
          let* e = event_of_json e in
          Ok (e :: acc))
        (Ok []) l
      (* the list was rendered oldest-first; folding reverses it into
         the newest-first accumulator order *)
    | _ -> fail "missing events"
  in
  Ok { r_stats; r_drift; r_refit; r_lin; r_events; r_quarantined; r_records }

(* --- the run ------------------------------------------------------- *)

let retryable (e : Guard.Error.t) =
  match e.Guard.Error.kind with
  | Guard.Error.Resource | Guard.Error.Internal -> true
  | Guard.Error.Parse | Guard.Error.Validation -> false

let run ?budget ?simulator (cfg : config) ~model ~source =
  let ( let* ) = Result.bind in
  let* drift_cfg = Drift.validate_config cfg.drift in
  let* () =
    if cfg.checkpoint_every < 1 then
      Error (Guard.Error.validation "checkpoint_every must be >= 1")
    else if cfg.sim_every < 0 then
      Error (Guard.Error.validation "sim_every must be >= 0")
    else if cfg.queue_capacity < 1 then
      Error (Guard.Error.validation "queue_capacity must be >= 1")
    else Ok ()
  in
  let* weight = Weight.validate cfg.weight in
  let bits = Source.bits source in
  let* () =
    if bits <> model.Powermodel.Model.inputs then
      Error
        (Guard.Error.validation
           ~context:
             [
               ("source", string_of_int bits);
               ("model", string_of_int model.Powermodel.Model.inputs);
             ]
           "source width does not match the model")
    else Ok ()
  in
  let compiled = Powermodel.Model.compile model in
  let power ~x_i ~x_f =
    Powermodel.Model.switched_capacitance_compiled compiled ~x_i ~x_f
  in
  (* ground truth for refit samples, one batch per flush: gate-level
     simulation when available, else the exact/approximate model
     itself *)
  let label_batch =
    match simulator with
    | Some sim -> Gatesim.Simulator.switched_capacitance_batch sim
    | None -> Array.map (fun (x_i, x_f) -> power ~x_i ~x_f)
  in
  (* --- recover ----------------------------------------------------- *)
  let* restored =
    match cfg.checkpoint with
    | Some path when cfg.resume -> (
      let* r = Journal.recover path in
      match Journal.find r ckpt_key with
      | None -> Ok None
      | Some payload -> Result.map Option.some (restore_of_json payload))
    | _ -> Ok None
  in
  let* journal =
    match cfg.checkpoint with
    | None -> Ok None
    | Some path -> (
      match Journal.open_ path with
      | j -> Ok (Some j)
      | exception Guard.Error.Guarded e -> Error e)
  in
  let stats, drift, refit, lin, events, quarantined, resumed_from =
    match restored with
    | Some r ->
      Source.skip source r.r_records;
      ( r.r_stats,
        r.r_drift,
        r.r_refit,
        ref r.r_lin,
        ref r.r_events,
        ref r.r_quarantined,
        Stats.vectors r.r_stats )
    | None ->
      ( Stats.create ~weight ~bits (),
        Drift.create ~config:drift_cfg ~bits (),
        Refit.create ~features:(bits + 1) (),
        ref (Array.make (bits + 1) 0.0),
        ref [],
        ref 0,
        0 )
  in
  let t_start = Guard.Budget.now () in
  (* records cross the queue in blocks; the capacity stays a bound in
     records, rounded up to whole blocks *)
  let block = Stats.shard_block in
  let queue =
    Ingest.create ~capacity:((cfg.queue_capacity + block - 1) / block) cfg.policy
  in
  let shed = ref 0 in
  let read_block () =
    let items = Array.make block (Source.Malformed "") in
    let rec fill k =
      if k = block then k
      else
        match Source.next source with
        | Some item ->
          items.(k) <- item;
          fill (k + 1)
        | None -> k
    in
    let n = fill 0 in
    if n = block then items else Array.sub items 0 n
  in
  let producer =
    Thread.create
      (fun () ->
        (* a short block means the source is exhausted *)
        let rec loop () =
          let items = read_block () in
          let n = Array.length items in
          if n > 0 then
            match Ingest.push queue items with
            | Ok () -> if n = block then loop ()
            | Error e when Guard.Error.context_value e "reason" = Some "overloaded"
              ->
              (* shed: the block's records are dropped, the stream goes on *)
              shed := !shed + n;
              Obs.Metrics.add m_sheds n;
              if n = block then loop ()
            | Error _ -> ()  (* queue closed under us: stop reading *)
        in
        loop ();
        Ingest.close queue)
      ()
  in
  let prev = ref (Stats.last_vector stats) in
  let trans_seen = ref (Stats.transitions stats) in
  let checkpoints = ref 0 in
  let checkpoint_failures = ref 0 in
  let ingest_retries = ref 0 in
  let last_ckpt = ref resumed_from in
  let flush_idx = ref (resumed_from / flush_quantum) in
  let stopped = ref None in
  let latest = Atomic.make Json.Null in
  let publish () =
    Atomic.set latest
      (Json.Obj
         [
           ("stats", Stats.snapshot_json stats);
           ("drift_events", Json.Int (Drift.events drift));
           ("quarantined", Json.Int !quarantined);
         ]);
  in
  publish ();
  Registry.publish cfg.name (fun () -> Atomic.get latest);
  (* one drift event: the self-healing moment.  The compiled model
     answers the new regime by re-evaluating its closed form; Lin must be re-solved from
     forgotten normal equations and still only knows what was sampled. *)
  let handle_event (ev : Drift.event) =
    let t0 = Guard.Budget.now () in
    let expectation =
      Powermodel.Analysis.expected_capacitance_compiled compiled
        ~sp:ev.Drift.cur_sp ~st:ev.Drift.cur_st
    in
    let t1 = Guard.Budget.now () in
    let lin_rms_before = Refit.rms_recent refit !lin in
    let coeffs = Refit.fit refit in
    let t2 = Guard.Budget.now () in
    let lin_rms_after = Refit.rms_recent refit coeffs in
    lin := coeffs;
    Obs.Metrics.incr m_drift;
    Obs.Trace.instant "stream.drift" ~args:(fun () ->
        [
          ("at", Json.Int ev.Drift.at);
          ("distance", Json.Float ev.Drift.distance);
        ]);
    events :=
      {
        drift = ev;
        expectation;
        expectation_seconds = t1 -. t0;
        lin_rms_before;
        lin_rms_after;
        refit_seconds = t2 -. t1;
        refit_samples = Refit.count refit;
      }
      :: !events
  in
  let write_checkpoint () =
    match journal with
    | None -> ()
    | Some j ->
      let payload =
        ckpt_json ~stats ~drift ~refit ~lin:!lin ~events:!events
          ~quarantined:!quarantined
      in
      let key = Printf.sprintf "stream:checkpoint:%d" (Stats.vectors stats) in
      let rec attempt k =
        match
          Guard.Fault.with_task ~key ~attempt:k (fun () ->
              Guard.Fault.inject "checkpoint_write";
              Journal.append j ~key:ckpt_key payload)
        with
        | () ->
          incr checkpoints;
          Obs.Metrics.incr m_checkpoints
        | exception Guard.Error.Guarded e when retryable e && k < 2 ->
          attempt (k + 1)
        | exception Guard.Error.Guarded _ ->
          (* a lost checkpoint costs at most one interval on resume *)
          incr checkpoint_failures
      in
      attempt 0;
      last_ckpt := Stats.vectors stats
  in
  (* one flush: the sharded stats fold, one labelling batch for the
     flush's refit samples, then the sequential drift/refit walk, all
     inside the [stream_ingest] fault boundary so an injected failure
     retries the whole quantum before anything was committed *)
  let flush chunk =
    let idx = !flush_idx in
    incr flush_idx;
    let n = Array.length chunk in
    let body () =
      Guard.Fault.inject "stream_ingest";
      Obs.Trace.with_span "stream.flush"
        ~args:(fun () -> [ ("vectors", Json.Int n); ("flush", Json.Int idx) ])
        (fun () ->
          Stats.consume ?jobs:cfg.jobs ~power stats chunk;
          (* the transition ending at chunk.(k) starts at chunk.(k - 1),
             or at the previous flush's last vector when k = 0; its
             stream index is t0 + k *)
          let start = !prev in
          let t0 = if Option.is_none start then !trans_seen - 1 else !trans_seen in
          let from k = if k = 0 then Option.get start else chunk.(k - 1) in
          let sampled k =
            cfg.sim_every > 0
            && (k > 0 || Option.is_some start)
            && (t0 + k) mod cfg.sim_every = 0
          in
          let samples = ref [] in
          for k = n - 1 downto 0 do
            if sampled k then samples := (from k, chunk.(k)) :: !samples
          done;
          let labels = label_batch (Array.of_list !samples) in
          let next = ref 0 in
          Array.iteri
            (fun k v ->
              if sampled k then begin
                Refit.observe refit
                  ~row:(Powermodel.Baselines.transition_features (from k) v)
                  ~value:labels.(!next);
                incr next
              end;
              match Drift.observe drift v with
              | Some ev -> handle_event ev
              | None -> ())
            chunk;
          trans_seen := t0 + n;
          prev := Some chunk.(n - 1);
          Obs.Metrics.add m_vectors n)
    in
    let rec attempt k =
      match
        Guard.Fault.with_task
          ~key:(Printf.sprintf "stream:flush:%d" idx)
          ~attempt:k body
      with
      | () -> ()
      | exception Guard.Error.Guarded e when retryable e && k < 7 ->
        incr ingest_retries;
        attempt (k + 1)
      | exception Guard.Error.Guarded e ->
        stopped := Some (Guard.Error.with_context [ ("flush", string_of_int idx) ] e)
    in
    attempt 0;
    publish ();
    if Stats.vectors stats - !last_ckpt >= cfg.checkpoint_every then
      write_checkpoint ();
    (match budget with
    | Some b -> (
      match Guard.Budget.check b with
      | Guard.Budget.Exhausted e ->
        stopped := Some (Guard.Error.with_context [ ("seam", "flush") ] e)
      | Guard.Budget.Within | Guard.Budget.Node_pressure _ -> ())
    | None -> ());
    if cfg.throttle > 0.0 then Thread.delay cfg.throttle
  in
  let buffer = Array.make flush_quantum [||] in
  let buffered = ref 0 in
  let drain_buffer () =
    if !buffered > 0 then begin
      flush (Array.sub buffer 0 !buffered);
      buffered := 0
    end
  in
  (* flushes are cut at exactly [flush_quantum] valid vectors, wherever
     the blocks begin and end *)
  let take = function
    | Source.Vector v ->
      buffer.(!buffered) <- v;
      incr buffered;
      if !buffered = flush_quantum then drain_buffer ()
    | Source.Malformed _ ->
      incr quarantined;
      Obs.Metrics.incr m_quarantined
  in
  let rec consume () =
    if !stopped = None then
      match Ingest.pop queue with
      | None -> ()
      | Some items ->
        let rec each k =
          if k < Array.length items && !stopped = None then begin
            take items.(k);
            each (k + 1)
          end
        in
        each 0;
        consume ()
  in
  let outcome =
    Obs.Trace.with_span "stream.run" (fun () ->
        consume ();
        if !stopped = None then begin
          drain_buffer ();
          match Drift.flush drift with
          | Some ev -> handle_event ev
          | None -> ()
        end;
        (* the final state is always checkpointed, so a resumed finished
           stream restores instead of replaying *)
        if Stats.vectors stats > !last_ckpt || !stopped <> None then
          write_checkpoint ();
        publish ())
  in
  ignore outcome;
  Ingest.close queue;
  Thread.join producer;
  Option.iter Journal.close journal;
  Registry.unpublish cfg.name;
  Ok
    {
      stats;
      events = List.rev !events;
      quarantined = !quarantined;
      sheds = !shed;
      checkpoints = !checkpoints;
      checkpoint_failures = !checkpoint_failures;
      ingest_retries = !ingest_retries;
      drift_skipped = Drift.skipped_checks drift;
      resumed_from;
      stopped = !stopped;
      wall_seconds = Guard.Budget.now () -. t_start;
    }

(* --- reports ------------------------------------------------------- *)

let stats_json o =
  Json.Obj
    [
      ("schema", Json.String "cfpm-stream/1");
      ("stats", Stats.snapshot_json o.stats);
      ("drift_events", Json.Int (List.length o.events));
      ("events", Json.List (List.map event_det_json o.events));
      ("quarantined", Json.Int o.quarantined);
    ]

let report_json o =
  let event_full e =
    match event_det_json e with
    | Json.Obj members ->
      Json.Obj
        (members
        @ [
            ("expectation_seconds", Json.Float e.expectation_seconds);
            ("refit_seconds", Json.Float e.refit_seconds);
          ])
    | j -> j
  in
  Json.Obj
    [
      ("schema", Json.String "cfpm-stream/1");
      ("stats", Stats.snapshot_json o.stats);
      ("drift_events", Json.Int (List.length o.events));
      ("events", Json.List (List.map event_full o.events));
      ("quarantined", Json.Int o.quarantined);
      ("sheds", Json.Int o.sheds);
      ("checkpoints", Json.Int o.checkpoints);
      ("checkpoint_failures", Json.Int o.checkpoint_failures);
      ("ingest_retries", Json.Int o.ingest_retries);
      ("drift_skipped", Json.Int o.drift_skipped);
      ("resumed_from", Json.Int o.resumed_from);
      ( "stopped",
        match o.stopped with
        | None -> Json.Null
        | Some e -> Guard.Error.to_json e );
      ("wall_seconds", Json.Float o.wall_seconds);
    ]

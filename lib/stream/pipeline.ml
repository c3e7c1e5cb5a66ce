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

(* [spread.(a lor (b lsl 4))] holds, little-endian, bit i of nibble [a]
   in byte 2i and bit i of [b] in byte 2i + 1. *)
let spread =
  Array.init 256 (fun ab ->
      let v = ref 0L in
      for i = 0 to 3 do
        let byte k bit = Int64.shift_left (Int64.of_int bit) (8 * k) in
        v := Int64.logor !v (byte (2 * i) ((ab lsr i) land 1));
        v := Int64.logor !v (byte ((2 * i) + 1) ((ab lsr (4 + i)) land 1))
      done;
      !v)

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
  let* () =
    match restored with
    | None -> Ok ()
    | Some r ->
      let check part width expected =
        if width = expected then Ok ()
        else
          Error
            (Guard.Error.validation
               ~context:
                 [
                   ("part", part);
                   ("checkpoint", string_of_int width);
                   ("source", string_of_int expected);
                 ]
               "checkpoint width does not match the source")
      in
      let* () = check "stats" (Stats.bits r.r_stats) bits in
      let* () = check "drift" (Drift.bits r.r_drift) bits in
      let* () = check "refit" (Refit.features r.r_refit - 1) bits in
      let* () = check "lin" (Array.length r.r_lin - 1) bits in
      (* a resumed run continues the checkpoint's schedule and windows;
         a config that asks for others would be silently ignored *)
      let same field ckpt run =
        if ckpt = run then Ok ()
        else
          Error
            (Guard.Error.validation
               ~context:[ ("field", field); ("checkpoint", ckpt); ("config", run) ]
               "checkpoint settings do not match the run's config")
      in
      let d = Drift.config r.r_drift and flt x = Json.to_string ~pretty:false (Json.Float x) in
      let* () =
        same "weight" (Weight.to_string (Stats.weight r.r_stats)) (Weight.to_string weight)
      in
      let* () = same "window" (string_of_int d.window) (string_of_int drift_cfg.window) in
      let* () =
        same "min_samples" (string_of_int d.min_samples) (string_of_int drift_cfg.min_samples)
      in
      let* () = same "high" (flt d.high) (flt drift_cfg.high) in
      same "low" (flt d.low) (flt drift_cfg.low)
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
  (* record blocks circulate: the consumer hands each one back once it
     is folded, and the producer refills it *)
  let spare = Stack.create () and spare_lock = Mutex.create () in
  let take_spare () =
    Mutex.lock spare_lock;
    let b = Stack.pop_opt spare in
    Mutex.unlock spare_lock;
    match b with Some b -> b | None -> Source.create_block source ~capacity:block
  in
  let give_back b =
    Mutex.lock spare_lock;
    Stack.push b spare;
    Mutex.unlock spare_lock
  in
  let producer =
    Thread.create
      (fun () ->
        (* a short block means the source is exhausted *)
        let rec loop () =
          let b = take_spare () in
          Source.fill source b;
          let n = b.Source.records in
          if n > 0 then
            match Ingest.push queue b with
            | Ok () -> if n = block then loop ()
            | Error e when Guard.Error.context_value e "reason" = Some "overloaded"
              ->
              (* shed: the block's records are dropped, the stream goes on *)
              shed := !shed + n;
              Obs.Metrics.add m_sheds n;
              give_back b;
              if n = block then loop ()
            | Error _ -> ()  (* queue closed under us: stop reading *)
        in
        loop ();
        Ingest.close queue)
      ()
  in
  (* the flush buffer: the vectors of the next flush, after the
     previous flush's last vector in slot 0 when there is one — that
     is, once the statistics hold a vector *)
  let chunk = Stimulus.Block.create ~width:bits ~capacity:(flush_quantum + 1) in
  Option.iter (Stimulus.Block.push_words chunk) (Stats.last stats);
  let context () = if Stats.vectors stats > 0 then 1 else 0 in
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
  (* per-flush scratch: the transitions packed for the compiled model,
     the sampled transitions and one refit row *)
  let vstride = Powermodel.Vars.count ~inputs:bits in
  let packed = Bytes.create ((flush_quantum * vstride) + 8) in
  let ends = Array.make flush_quantum 0 in
  let row = Array.make (bits + 1) 0.0 in
  let wstride = Stimulus.Block.stride chunk in
  let words = Stimulus.Block.words chunk in
  (* Transition j - 1 -> j of the chunk, for j in [1, len), into slot
     j - 1 of the batch buffer ({!Powermodel.Vars}' interleaved layout:
     byte 2i is input i before, byte 2i + 1 after).  Four inputs at a
     time: [spread] turns a nibble of each vector into the eight bytes
     they occupy, written as one 64-bit store.  A store may run up to
     eight bytes past the inputs it covers; ascending order overwrites
     that spill with the right bytes, and the buffer has eight bytes of
     slack for the last one. *)
  let pack len =
    for j = 1 to len - 1 do
      let base = (j - 1) * vstride in
      for w = 0 to wstride - 1 do
        let a = words.(((j - 1) * wstride) + w) and b = words.((j * wstride) + w) in
        let bit0 = w * Stimulus.Block.bits_per_word in
        let q = ref 0 in
        while !q < Int.min Stimulus.Block.bits_per_word (bits - bit0) do
          let nibbles = ((a lsr !q) land 15) lor (((b lsr !q) land 15) lsl 4) in
          Bytes.set_int64_le packed (base + (2 * (bit0 + !q))) spread.(nibbles);
          q := !q + 4
        done
      done
    done
  in
  (* the Lin features of transition j - 1 -> j: a constant, then one
     per input that toggles *)
  let fill_row j =
    for i = 0 to bits - 1 do
      let w = i / Stimulus.Block.bits_per_word in
      let d =
        words.(((j - 1) * wstride) + w) lxor words.((j * wstride) + w)
      in
      row.(i + 1) <-
        (if (d lsr (i mod Stimulus.Block.bits_per_word)) land 1 = 1 then 1.0
         else 0.0)
    done;
    row.(0) <- 1.0
  in
  (* one flush: the compiled model on every transition, the sharded
     stats fold, one labelling batch for the flush's refit samples, then
     the drift/refit walk window by window, all inside the
     [stream_ingest] fault boundary so an injected failure retries the
     whole quantum before anything was committed *)
  let flush () =
    let idx = !flush_idx in
    incr flush_idx;
    let len = Stimulus.Block.length chunk in
    let first = context () in
    let n = len - first in
    let body () =
      Guard.Fault.inject "stream_ingest";
      Obs.Trace.with_span "stream.flush"
        ~args:(fun () -> [ ("vectors", Json.Int n); ("flush", Json.Int idx) ])
        (fun () ->
          let power =
            if len < 2 then [||]
            else begin
              pack len;
              Powermodel.Model.eval_batch ?jobs:cfg.jobs compiled ~inputs:packed
                ~n:(len - 1)
            end
          in
          Stats.consume_block ?jobs:cfg.jobs ~power stats chunk ~first;
          (* the transition into chunk vector j has stream index
             t0 + j - first *)
          let t0 = if first = 0 then !trans_seen - 1 else !trans_seen in
          let sampled = ref 0 in
          if cfg.sim_every > 0 then
            for j = 1 to len - 1 do
              if (t0 + j - first) mod cfg.sim_every = 0 then begin
                ends.(!sampled) <- j;
                incr sampled
              end
            done;
          let labels =
            match simulator with
            | Some sim ->
              Gatesim.Simulator.switched_capacitance_block sim chunk
                (Array.sub ends 0 !sampled)
            | None -> Array.init !sampled (fun q -> power.(ends.(q) - 1))
          in
          let next = ref 0 in
          let k = ref first in
          while !k < len do
            let m = Int.min (len - !k) (Drift.room drift) in
            while !next < !sampled && ends.(!next) < !k + m do
              fill_row ends.(!next);
              Refit.observe refit ~row ~value:labels.(!next);
              incr next
            done;
            (match Drift.observe_block drift chunk ~first:!k ~len:m with
            | Some ev -> handle_event ev
            | None -> ());
            k := !k + m
          done;
          trans_seen := t0 + n;
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
    (* the last vector becomes the next flush's slot 0 *)
    Stimulus.Block.blit ~src:chunk ~src_pos:(len - 1) ~dst:chunk ~dst_pos:0 ~len:1;
    Stimulus.Block.truncate chunk 1;
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
  let buffered () = Stimulus.Block.length chunk - context () in
  let drain_buffer () = if buffered () > 0 then flush () in
  (* flushes are cut at exactly [flush_quantum] valid vectors, wherever
     the blocks begin and end; a malformed record is quarantined in its
     place among them *)
  let take (b : Source.block) =
    let vb = b.Source.vectors in
    let nvec = Stimulus.Block.length vb in
    let bad = ref b.Source.malformed in
    let quarantine_before c =
      let rec go () =
        match !bad with
        | (p, _) :: rest when p < c ->
          incr quarantined;
          Obs.Metrics.incr m_quarantined;
          bad := rest;
          go ()
        | _ -> ()
      in
      go ()
    in
    let pos = ref 0 in
    while !pos < nvec && !stopped = None do
      let m = Int.min (flush_quantum - buffered ()) (nvec - !pos) in
      Stimulus.Block.blit ~src:vb ~src_pos:!pos ~dst:chunk
        ~dst_pos:(Stimulus.Block.length chunk) ~len:m;
      pos := !pos + m;
      if buffered () = flush_quantum then begin
        quarantine_before !pos;
        drain_buffer ()
      end
    done;
    if !stopped = None then quarantine_before max_int
  in
  let rec consume () =
    if !stopped = None then
      match Ingest.pop queue with
      | None -> ()
      | Some b ->
        take b;
        give_back b;
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

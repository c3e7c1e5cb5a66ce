(** The streaming telemetry pipeline: source -> bounded ingest ->
    sharded {!Stats} fold + {!Drift} detection -> self-healing
    re-estimation, with periodic journaled checkpoints.

    The paper's live demonstration: when the detector fires, the exact
    expectation is {e re-evaluated} from the already-compiled model
    ({!Powermodel.Analysis.expected_capacitance_compiled} — one pass over
    its triple program, zero rebuild) while the characterized [Lin] baseline has to be refit from
    freshly simulated samples and chases the new regime.

    {b Determinism.}  Vectors are folded in fixed flush quanta (a
    multiple of {!Stats.shard_block}), so block boundaries, drift
    windows, refit sampling and checkpoint positions depend only on
    counts — never on queue timing, on how records were grouped into
    ingest blocks, or on worker count.  Under the [Block] ingest policy
    the deterministic subset of the result ({!stats_json}) is
    byte-identical across [CFPM_JOBS] values {e and}
    across a SIGKILL + resume, because a checkpoint is only written at
    a flush seam and a resumed run replays from the last good one.

    {b Robustness.}  Malformed records are quarantined and counted;
    flush processing retries under the [stream_ingest] fault point;
    window judgements tolerate [drift_check] faults; checkpoint appends
    run under [checkpoint_write] plus the journal's own
    [journal_append] torn-write point and a failed checkpoint costs at
    most one interval, never the stream.  A {!Guard.Budget} deadline is
    honoured cooperatively at flush seams. *)

type config = {
  name : string;  (** registry key for live snapshots *)
  weight : Weight.t;
  drift : Drift.config;
  policy : Ingest.policy;
  queue_capacity : int;
      (** ingest bound in records (>= 1), held as whole
          {!Stats.shard_block}-record blocks *)
  checkpoint : string option;  (** journal path *)
  checkpoint_every : int;  (** vectors between checkpoints *)
  resume : bool;  (** recover the checkpoint journal before consuming *)
  jobs : int option;  (** worker domains for the sharded fold *)
  sim_every : int;  (** simulate every k-th transition for the [Lin]
                        refit sample; [0] disables refitting *)
  throttle : float;  (** seconds slept per flush — a test seam so chaos
                         tests can land a SIGKILL mid-stream *)
}

val default_config : config
(** name ["stream"], [Equal] weight, default drift config, [Block]
    policy, capacity 4096, no checkpointing, [sim_every] 16, no
    throttle. *)

type event = {
  drift : Drift.event;
  expectation : float;
      (** exact ADD expectation re-evaluated at the triggering window's
          [(sp, st)] — no recharacterization *)
  expectation_seconds : float;
  lin_rms_before : float;
      (** stale-coefficient RMS error on recent simulated samples *)
  lin_rms_after : float;  (** after the incremental refit *)
  refit_seconds : float;
  refit_samples : int;
}

type outcome = {
  stats : Stats.t;
  events : event list;  (** chronological *)
  quarantined : int;
  sheds : int;  (** records dropped under [Shed], a whole block at a time *)
  checkpoints : int;  (** successful checkpoint appends this process *)
  checkpoint_failures : int;
  ingest_retries : int;  (** flush retries under injected faults *)
  drift_skipped : int;
  resumed_from : int;  (** vectors restored from a checkpoint; 0 fresh *)
  stopped : Guard.Error.t option;  (** budget exhaustion, when early *)
  wall_seconds : float;
}

val flush_quantum : int
(** Vectors per flush (a fixed multiple of {!Stats.shard_block}). *)

val run :
  ?budget:Guard.Budget.t ->
  ?simulator:Gatesim.Simulator.t ->
  config ->
  model:Powermodel.Model.t ->
  source:Source.t ->
  (outcome, Guard.Error.t) result
(** Consume the source to exhaustion (or budget exhaustion).  [model]
    must be the compiled-against model of the streamed circuit;
    [simulator] (when given) provides gate-level ground truth for refit
    samples, otherwise the model's own outputs are used.  Returns a
    [Resource]/[Parse] error when the checkpoint journal cannot be
    recovered or opened, and a [Validation] error naming the part or
    field with both values when a resumed checkpoint's width, weight
    schedule or drift config differs from the source's and [config]'s. *)

val stats_json : outcome -> Json.t
(** The deterministic subset — statistics snapshot, drift events with
    re-evaluated expectations and refit errors, quarantine count.
    Byte-identical across job counts and across SIGKILL + resume (under
    [Block] policy); the CI identity artifact. *)

val report_json : outcome -> Json.t
(** Everything, including timings, sheds, retries and checkpoint
    accounting. *)

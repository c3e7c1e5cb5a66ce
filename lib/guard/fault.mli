(** Deterministic, seed-keyed fault injection.

    The crash-recovery machinery (journaled checkpoints, supervised
    retries) is only trustworthy if its failure paths are exercised, and
    failure paths need failures on demand.  This module plants named
    {e injection points} in production code ([Model.build], the gate
    simulator, pool workers, journal appends); a {e fault spec} — from
    [CFPM_FAULT_SPEC] or {!install} — arms a subset of them with a
    failure mode and a rate.

    Three properties make the injected chaos usable in CI:

    - {b off by default}: with no spec armed, {!inject} is one atomic
      load; production behaviour is untouched.
    - {b deterministic}: the decision at a point is a pure hash of
      [(seed, point, task key, attempt)] — no PRNG state, no call
      counters — so the same task fails at the same attempt for every
      job count and on every machine.
    - {b scoped to supervised tasks}: injection only fires inside
      {!with_task} (installed by [Parallel.Pool.Supervisor] around each
      attempt).  Unsupervised code — ablations, micro-benchmarks — never
      faults, even with a spec armed.

    Spec grammar (comma-separated clauses):
    [point:mode:rate[:seed=N]], e.g.
    ["model_build:fail:0.2:seed=7,journal_append:torn:0.1"].
    Modes: [fail] (a retryable [Resource] error), [deadline] (a
    [Resource] error shaped like a deadline expiry), [exn] (a raw
    exception, classified [Internal]), [torn] (interpreted by
    [Journal.append]: the record is half-written, exercising torn-tail
    recovery).  Known points: [model_build], [simulate], [pool_task],
    [journal_append], [store_read] (inside [Store.load_compiled] and
    [Store.load], so a chaos run exercises the serve layer's
    artifact-failure path without damaging files on disk), [serve_request] (at the head of every power-query
    request, keyed on the request's [id]/[op]/[model] — the same request
    fails on every worker, connection and job count), and the streaming
    telemetry points: [stream_ingest] (around each flush quantum, before
    any state is mutated, so retries are idempotent), [drift_check] (at
    each window judgement — an injected fault skips the judgement, never
    the stream) and [checkpoint_write] (around each checkpoint append,
    on top of [journal_append]'s torn-write coverage). *)

type mode = Fail | Exn | Deadline | Torn

type clause = { point : string; mode : mode; rate : float; seed : int }

type spec = clause list

val parse : string -> (spec, Error.t) result
(** Parse a spec string.  Rates must be floats in [0, 1]. *)

val mode_name : mode -> string

val install : spec -> unit
(** Arm a spec process-wide (replaces any previous one). *)

val clear : unit -> unit
(** Disarm injection and stop consulting [CFPM_FAULT_SPEC]. *)

val installed : unit -> bool
(** Whether a spec is armed.  The first call (and the first {!inject})
    resolves [CFPM_FAULT_SPEC] from the environment; a malformed value is
    reported once on stderr and ignored. *)

val with_task : key:string -> attempt:int -> (unit -> 'a) -> 'a
(** Install the ambient task identity (domain-local) that injection
    decisions are keyed on; restored on exit, exceptions included. *)

val task : unit -> (string * int) option
(** The ambient [(task key, attempt)], if inside {!with_task}. *)

val attempt : unit -> int
(** The ambient attempt index, [0] outside {!with_task} — lets a test
    task behave differently across supervised retries. *)

val triggered : string -> mode option
(** The armed mode that fires at this point for the ambient task, if
    any.  Pure: same answer on every call with the same ambient task. *)

val inject : string -> unit
(** The injection point.  Raises the armed failure ([Guard.Error.Guarded]
    for [fail]/[deadline], [Failure] for [exn]) when {!triggered}; a
    [torn] clause is ignored here — only [Journal.append] interprets it. *)

val hash64 : string -> int64
(** FNV-1a.  Stable across runs, OCaml versions and architectures
    (unlike [Hashtbl.hash]) — also used for backoff jitter and journal
    task identities. *)

val uniform : string -> float
(** [hash64] folded to a float in [0, 1). *)

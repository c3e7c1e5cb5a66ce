(** The power-query request handler: one JSON request in, one JSON
    response out — total, never raising.

    The handler is deliberately transport-free: the socket server feeds
    it frames, and [cfpm store query] calls it directly on the same
    bytes, so a response is {e byte-identical} whether a query travels
    over a socket or not (the chaos CI job leans on this to compare a
    fault-injected server's healthy answers against fault-free local
    evaluation).

    {2 Operations}

    Every request is [{"id": J, "op": "...", ...}]; [id] is echoed
    verbatim.  Model-addressing ops name an artifact with
    ["model": "path"] (resolved by the {!Cache}).  Transitions are
    bitstrings over the circuit inputs, MSB = input 0, e.g. ["0110"].

    - [ping] → ["pong"]
    - [meta] [model] → the artifact header ({!Store.meta_json})
    - [eval] [model x_i x_f] → switched capacitance (fF) of one
      transition, through the compiled program
    - [eval_batch] [model transitions=[[x_i, x_f], ...]] → list of
      capacitances, evaluated in deadline-checked blocks sharded over
      the domain pool — byte-identical for every job count.  A frame
      in canonical form (see {!handle_string}) is answered without a
      JSON tree; every other form of the same request answers the same
      bytes
    - [expectation] [model sp? st?] → exact expected capacitance under
      the Markov statistics (defaults: the artifact's saved [(sp, st)])
    - [worst] [model method?] → a worst-case witness
      [{"x_i", "x_f", "value", "method", "optimal", "upper"}].
      [method] is ["add"] (default: the diagram traversal, exact models
      prove their maximum), ["pbo"] (the independent
      {!Powermodel.Adversarial} branch-and-bound oracle — needs the
      server's circuit resolver, runs under the request deadline, and
      answers a budget-bounded [value <= max <= upper] interval with
      [optimal = false] when cut short), or ["both"] (both routes plus
      ["comparable"]/["agree"] members — float-equality on exact
      optimal runs, a bound check otherwise)
    - [sensitivities] [model] → per-input toggle sensitivities
    - [stream] → live {!Stream.Registry} snapshots of every telemetry
      pipeline running in this process (no [model] argument)
    - [stats] → handler counters + cache statistics

    {2 Robustness}

    Each request runs inside a fault-isolation boundary: any exception —
    including injected ones — is classified by {!Guard.Error.of_exn} and
    returned as an error response, never propagated.  A wall-clock
    deadline ([deadline_ms] in the request, else the handler default)
    is enforced through a {!Guard.Budget} checked at operation seams
    (between eval blocks, before diagram walks) and handed to the PBO
    solve as its budget — explicitly, never through the shared ambient
    slot, which every worker thread of a domain would see; an overrun
    answers a [Resource] error with [reason=deadline].  The analyses
    ([expectation], [worst], [sensitivities]) read the cached model's
    compiled program, take no lock and may run concurrently.  The [serve_request] fault
    point fires at entry (keyed on the request's [id]/[op]/[model], so
    injection is deterministic per request), and [store_read] fires
    inside artifact loads. *)

type t

val create :
  ?jobs:int ->
  ?deadline:float ->
  ?resolve_circuit:(string -> Netlist.Circuit.t option) ->
  Cache.t ->
  t
(** [jobs] shards batched evaluation over the domain pool ([CFPM_JOBS]
    default); [deadline] (seconds) bounds every request that does not
    carry its own [deadline_ms].  [resolve_circuit] maps an artifact's
    stored circuit name back to its netlist for the [worst] op's PBO
    methods (artifacts carry no netlist; the solve assumes the default
    load model the artifact was built with); without it those methods
    answer a [Validation] error. *)

val cache : t -> Cache.t

val handle : t -> Json.t -> Json.t
(** Process one request.  Total: malformed requests, unknown ops, load
    failures, budget overruns and injected faults all come back as error
    responses carrying the request's [id] (or [null]). *)

val handle_string : t -> string -> string
(** {!handle} on raw frame bytes: parses, dispatches, renders compactly
    ({!Protocol.render}).  Unparseable requests answer a [Parse] error
    with [id = null].

    An [eval_batch] frame in {e canonical} form — exactly the text
    {!Protocol.render} makes of [{"id", "op", "model", "transitions"}]
    in that member order, with an [int] id, a model name of printable
    ASCII needing no escape, and at least one pair of bitstrings that
    are all one width and all ['0']/['1'] — is answered without a JSON
    tree: its bits are scanned straight into the batch buffer and the
    answer written straight out, each leaf's text rendered once per
    loaded artifact ({!Cache.leaf_text}).  It runs inside the same fault
    boundary, counters, fault key and default deadline as {!handle}.
    Any other text — whitespace, another member order, extra members
    such as [deadline_ms], escapes, another id token, mixed widths — is
    parsed and handled as above.  Both routes answer a request with the
    same bytes. *)

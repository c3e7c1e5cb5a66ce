(** Versioned, self-verifying binary store for built power models — the
    durable half of the paper's "characterize never, query forever"
    economy.

    A saved artifact carries the model's {e compiled} form
    ({!Dd.Compiled.repr}: the flat [(var, lo, hi)] triple program plus
    the leaf table), its variable order, default [(sp, st)] query
    statistics and build/reorder statistics, so any later process — a
    long-running [cfpm serve], a cross-stage consumer in the ATLAS sense —
    can answer every model query without touching the netlist again.
    The triple program {e is} the reachable ADD, so {!load_compiled}
    (what the query server uses) levelizes it straight from the stored
    triples ({!Dd.Compiled.of_repr}) and builds no diagram node: every
    query on the compiled model ({!Powermodel.Analysis} included)
    answers exactly as on a freshly built one.  {!load} additionally
    rebuilds a full {!Powermodel.Model.t} for callers that need the
    diagram itself.

    {2 Format (cfpm-store/1)}

    {v
    "CFPMSTOR"           8-byte magic
    u32 BE               format version (1)
    then sections, each: 4-byte tag | u32 BE payload length | payload
                         | u32 BE CRC-32 over tag+length+payload
      HEAD   compact JSON header: circuit, inputs, strategy, weighting,
             max_size, reorder policy, exactness, variable order,
             default (sp, st), node/leaf counts, build stats
      CODE   u32 nvars | i32 root ref | u32 node count | 3n x i32 triples
      LEAF   u32 count | n x u64 IEEE-754 bit patterns
      END.   zero-length terminator (proves the file is complete)
    v}

    Every section is independently CRC-checked ({!Journal.crc32}, the
    IEEE polynomial), and the byte stream is fully validated before a program is
    levelized or a diagram node constructed, so a corrupted artifact is {e always} a
    classified error — never a crash, never a silently wrong model.
    Writes go through {!Ioutil.write_atomic} (data fsync, atomic rename,
    parent-directory fsync).

    {2 Failure classification}

    Load/verify failures are {!Guard.Error} values whose context carries
    a machine-readable [reason]:

    - ["version-skew"]: wrong magic, unknown format version, or a header
      declaring a different format — the artifact is from an
      incompatible writer, not damaged;
    - ["truncated"]: the byte stream ends inside a header or section, or
      the END terminator is missing — the tail was lost;
    - ["corrupt"]: a section CRC mismatch (the [section] context entry
      names it) or a structural invariant violation after a clean CRC.

    I/O failures (unreadable file) are [Resource] errors with no
    [reason]; classification errors are [Parse]. *)

type meta = {
  circuit : string;
  inputs : int;
  strategy : Dd.Approx.strategy;
  weighting : Dd.Approx.weighting;
      (** [Robust] anchors are not persisted: a robust-weighted model
          loads as [Robust []] (the default anchor set).  The weighting
          only matters for {e further} collapsing, never for queries. *)
  max_size : int option;
  reorder : Powermodel.Reorder.policy;
  exact : bool;
      (** No approximation was applied.  HEAD stores it twice, as the
          [exact] member and as [stats.approx_calls = 0]; a header
          lacking either, or where they disagree, is ["corrupt"]. *)
  order : int array;  (** level-to-variable over the [2 * inputs] vars *)
  default_sp : float;
  default_st : float;
  nodes : int;  (** decision nodes in the compiled program *)
  leaves : int;
  stats : Powermodel.Model.build_stats;
}

val format_version : int

val save :
  ?defaults:float * float ->
  path:string ->
  Powermodel.Model.t ->
  (meta, Guard.Error.t) result
(** Compile the model and write the artifact durably.  [defaults]
    (default [(0.5, 0.5)]) are the [(sp, st)] statistics a server uses
    for expectation queries that do not specify their own.  Returns the
    artifact's metadata; I/O failures are [Resource] errors. *)

type artifact = { meta : meta; compiled : Powermodel.Model.compiled }
(** A loaded artifact as the query server holds it: its header and its
    compiled program, with no {!Powermodel.Model.t} and no {!Dd.Add}
    manager behind them. *)

val load_compiled : string -> (artifact, Guard.Error.t) result
(** Read, verify and levelize: decode, validate, then
    {!Dd.Compiled.of_repr} on the decoded arrays.  No ADD node is built
    and nothing is recompiled.  [switched_capacitance_compiled],
    [eval_batch] and the {!Powermodel.Analysis} expectation /
    worst-case / sensitivity queries on [compiled] all answer exactly as
    on the model that was saved, and [worst add] reports [optimal] from
    the header's checked exactness.  Honours the [store_read]
    fault-injection point ({!Guard.Fault}); traced as a [store_load]
    span and counted in [store.loads] / [store.load_failures]. *)

type loaded = {
  meta : meta;
  model : Powermodel.Model.t;
  compiled : Powermodel.Model.compiled;
}

val load : string -> (loaded, Guard.Error.t) result
(** {!load_compiled}, then rebuild the ADD from the program: [model] is
    rebuilt bottom-up through the hash-consing constructor, protected in
    its own fresh manager, and answers every query exactly as the model
    that was saved.  Same errors, fault point, span and counters as
    {!load_compiled}; use that unless the diagram itself is needed. *)

val verify : string -> (meta, Guard.Error.t) result
(** Cold check: read the artifact, verify magic/version, every section
    CRC and the structural invariants of the program arrays — without
    constructing a single diagram node.  [Ok meta] means {!load} would
    succeed (barring I/O races). *)

val meta_json : meta -> Json.t
(** The artifact header as JSON (the exact object stored in the HEAD
    section, [format] member included) — served by the [meta] protocol
    operation and printed by [cfpm store verify]. *)

val reason : Guard.Error.t -> string option
(** The failure class of a load/verify error: ["version-skew"],
    ["truncated"] or ["corrupt"] (see above); [None] for plain I/O
    errors. *)

val approx_bytes : meta -> int
(** Rough in-memory footprint of a loaded artifact — the unit of the
    serve layer's cache ceiling.  It still charges 200 bytes a node,
    sized when a load also rebuilt the diagram; a {!load_compiled}
    artifact holds only the program arrays and the step table, so this
    is now a deliberate over-estimate (see store.ml). *)

(** Compiled bulk evaluators: a built ADD flattened into a branch-light
    array-coded program for high-volume querying.

    {!Add.eval} walks the hash-consed graph node by node — pointer chasing
    through boxed constructors, one allocation per {!Powermodel.Vars.env}
    merge — which is fine for a handful of queries and far too slow for the
    millions-of-transitions-per-second workloads the model is built to
    serve.  {!compile} renumbers the reachable nodes {e depth-first from
    the root} into contiguous int arrays of [(var, lo, hi)] triples plus a
    float leaf table (the same packed-int discipline as {!Ct}'s computed
    tables), so a query is a tight loop over int arrays with no allocation
    and no bounds checks.

    Child encoding: a non-negative value is the index of the next decision
    node; a negative value [lnot k] terminates the walk at leaf [k].  A
    constant diagram compiles to an {e empty} triple array whose root is
    itself a leaf reference — the eval loop never indexes the triple
    arrays, so the leaf-only program is handled without a special case at
    query time.

    Batched entry points shard the input block across the {!Parallel.Pool}
    domain pool in fixed-size blocks ({!block} vectors each).  The split
    depends only on [n] — never on the worker count — and per-block
    partial results are combined in block order, so outputs and folds are
    byte-identical for every [CFPM_JOBS] value.

    Instrumentation: compilation and batch evaluation run inside
    [compile] / [eval_batch] trace spans ({!Obs.Trace}), and the
    [compiled.programs] / [compiled.evals] metrics count programs built
    and vectors evaluated ({!Obs.Metrics}). *)

type t

val compile : ?order:int array -> ?vars:int -> ?size:int -> Add.t -> t
(** Flatten a diagram into a program.  [vars] fixes the environment width
    (the per-vector stride of batched input buffers); it defaults to
    [1 + max support variable] and must not be smaller.
    {!Powermodel.Model.compile} passes the full [Vars.count] width so the
    stride stays [2 * inputs] even when the model ignores some inputs.
    [size], the diagram's node count with leaves ({!Add.size_in}), sizes
    the numbering memo once; without it the memo grows as it fills.
    Either way the program is the same.

    [order] lists the variables in the diagram's level order (root to
    leaves, length exactly the environment width; {!Add.var_order}
    produces it) and defaults to the identity.  A diagram built — or
    reordered in place — under a non-natural order {e must} be compiled
    with its actual order: compilation raises [Invalid_argument] when the
    supplied order is not a permutation or provably disagrees with the
    diagram's structure.  Evaluation semantics are unchanged — inputs
    stay indexed by variable, whatever the order.  Equivalent to
    [of_repr (triples ?order ?vars d)].

    The source diagram is only read — the program shares nothing with its
    manager and is immutable, so it is safe to query from any number of
    domains concurrently. *)

(** {1 Shape} *)

val vars : t -> int
(** Environment width: every vector of a batch occupies [vars t] bytes. *)

val node_count : t -> int
(** Decision (non-leaf) nodes in the program. *)

val leaf_count : t -> int
(** Distinct terminal values in the leaf table. *)

val is_constant : t -> bool
(** True when the program is leaf-only (a constant model — e.g. every
    gate load zero): the root is a leaf reference and the triple arrays
    are empty. *)

(** {1 Evaluation} *)

val eval : t -> bool array -> float
(** Single-vector evaluation under an assignment indexed by variable;
    equals {!Add.eval} of the source diagram bit for bit.  Raises
    [Invalid_argument] if the environment is shorter than [vars t]. *)

val pack : t -> bool array array -> Bytes.t
(** Pack assignments into a batch buffer, [vars t] bytes per vector
    (['\001'] for true, ['\000'] for false), in order. *)

val eval_batch : ?jobs:int -> t -> inputs:Bytes.t -> n:int -> float array
(** Evaluate [n] packed vectors; slot [i] of the result is the program
    applied to bytes [[i * vars t, (i+1) * vars t)] of [inputs].  Blocks
    of {!block} vectors are sharded across a {!Parallel.Pool} ([jobs]
    workers, defaulting to [CFPM_JOBS]); each output slot is computed
    independently, so the result is byte-identical for every job count.
    Raises [Invalid_argument] when [n] is negative or [inputs] holds
    fewer than [n * vars t] bytes. *)

val eval_batch_leaves : ?jobs:int -> t -> inputs:Bytes.t -> n:int -> int array
(** {!eval_batch} answering leaf indices: slot [i] is the index into
    the leaf table ([(to_repr t).r_leaves]) of {!eval_batch}'s slot [i].
    Same sharding, span, metric and errors.  A caller that renders each
    leaf once (the serve layer's JSON writer) maps indices instead of
    hashing floats. *)

type stats = {
  count : int;
  total : float;    (** sum of the evaluations, in block order *)
  minimum : float;  (** [infinity] when [count = 0] *)
  maximum : float;  (** [neg_infinity] when [count = 0] *)
}

val stats_batch : ?jobs:int -> t -> inputs:Bytes.t -> n:int -> stats
(** Fold variant of {!eval_batch}: sum/min/max accumulation without
    materializing the output array.  Per-block partials are combined in
    block order, so the result is byte-identical for every job count
    (though the [total] may differ in the last bits from a strictly
    sequential left-to-right sum). *)

val block : int
(** Vectors per shard (fixed, so block splitting never depends on the
    worker count). *)

(** {1 Triple programs}

    The triple program {e is} the model's reachable DAG (numbered
    depth-first from the root, children referenced by triple offset or
    [lnot leaf]), so [(vars, order, code, leaves, root)] determines the
    whole program: {!Powermodel.Store} persists it and loads it back
    through {!of_repr}, and the analytic passes ({!Markov.expectation},
    {!Powermodel.Analysis}) read it directly. *)

type repr = {
  r_vars : int;  (** environment width ({!vars}) *)
  r_order : int array;  (** variables in level order, root first *)
  r_code : int array;  (** [(var, lo, hi)] triples at stride 3, preorder *)
  r_leaves : float array;  (** terminal values, first-encounter order *)
  r_root : int;  (** root reference, encoded like a child *)
}

val triples : ?order:int array -> ?vars:int -> ?size:int -> Add.t -> repr
(** Number the diagram's reachable DAG in one traversal, without the step
    table or a [compiled.programs] count; arguments as for {!compile}. *)

val of_repr : repr -> t
(** Levelize the step table straight from the triples, sharing [repr]'s
    arrays (never mutate them afterwards).  Raises [Invalid_argument]
    like {!compile} on a bad order; the triples must be well formed (from
    {!triples}/{!to_repr}, or validated as a stored artifact's are).
    [of_repr (to_repr p)] rebuilds [p] exactly. *)

val to_repr : t -> repr
(** The program's own arrays, not copies: read them, never write them. *)

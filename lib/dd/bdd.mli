(** Reduced ordered binary decision diagrams (ROBDDs).

    This is the Boolean half of the decision-diagram package the paper builds
    its models with (the authors used CUDD; we implement the same interface
    surface from scratch).  Nodes are hash-consed inside a {!manager}, so two
    structurally equal diagrams built in the same manager are physically
    equal, and equality tests are [==].

    Variables are non-negative integers.  By default the variable order is
    the natural integer order (variable 0 closest to the root); every
    manager carries a variable-to-level permutation that {!set_order}
    installs before the first node is built, and all ordered operations
    compare variables through it.  BDDs are never reordered in place: only
    the {!Add} built from them is.  All operations are memoized in
    per-manager caches. *)

type t = private
  | False
  | True
  | Node of { id : int; var : int; low : t; high : t }
      (** [Node {var; low; high}] is [if var then high else low].  Invariant:
          [low != high] and both children sit on strictly deeper levels than
          [var] under the manager's order. *)

type manager
(** Mutable state: unique table and operation caches.  Diagrams from
    different managers must never be mixed. *)

val manager : unit -> manager

val clear_caches : manager -> unit
(** Drop all operation caches (the unique table is kept, so existing nodes
    stay valid) and reset the {!Perf} counters.  Useful to bound memory in
    long runs. *)

val node_count : manager -> int
(** Number of internal nodes ever created in this manager (terminals
    excluded); the unique table never drops one. *)

val perf : manager -> Perf.t
(** The manager's performance counters: computed-table hits/misses per
    operation ({e not}, {e and}, {e or}, {e xor}, {e ite}, {e exists},
    {e shift}) and the peak node count.  The computed tables are
    direct-mapped and lossy, so an evicted entry counts as a miss when
    re-probed. *)

val unique_size : manager -> int
(** Current number of entries in the unique (hash-consing) table. *)

(** {1 Construction} *)

val zero : t
val one : t

val of_bool : bool -> t

val var : manager -> int -> t
(** [var m i] is the projection function of variable [i].  Raises
    [Invalid_argument] if [i < 0]. *)

val nvar : manager -> int -> t
(** Negated projection, [not (var m i)]. *)

(** {1 Boolean operations} *)

val bnot : manager -> t -> t
val band : manager -> t -> t -> t
val bor : manager -> t -> t -> t
val bxor : manager -> t -> t -> t
val bnand : manager -> t -> t -> t
val bnor : manager -> t -> t -> t
val bxnor : manager -> t -> t -> t
val bimply : manager -> t -> t -> t

val ite : manager -> t -> t -> t -> t
(** [ite m f g h] is [if f then g else h]. *)

val band_list : manager -> t list -> t
val bor_list : manager -> t list -> t

(** {1 Cofactors and quantification} *)

val restrict : manager -> t -> var:int -> value:bool -> t
(** Cofactor with respect to a literal. *)

val exists : manager -> int list -> t -> t
(** Existential quantification of the listed variables.  Memoized on
    (variable, node) in the manager's computed table, so the memo survives
    across the variables of one call and across calls. *)

val forall : manager -> int list -> t -> t

val shift : manager -> int -> t -> t
(** [shift m k f] renames every variable [v] of [f] to [v + k].  Under the
    natural order adding a constant preserves the variable order, so this
    is a single memoized structural copy — no apply operations.
    {!Powermodel.Model} uses it to derive the final-copy node functions
    from the initial-copy ones (interleaved numbering, offset 1) instead of
    re-evaluating the netlist.  Under a custom order the caller must ensure
    the renaming is still order-preserving — the pair-preserving orders of
    {!Powermodel.Reorder} keep offset-1 shifts of even-variable diagrams
    valid.  Raises [Invalid_argument] if any shifted variable would be
    negative. *)

(** {1 Queries} *)

val node_id : t -> int
(** Unique id within the manager ([False] is 0, [True] is 1). *)

val equal : t -> t -> bool
(** Physical equality; valid for diagrams of the same manager. *)

val is_true : t -> bool
val is_false : t -> bool

val eval : t -> bool array -> bool
(** [eval f env] evaluates [f] under [env] where [env.(i)] is the value of
    variable [i].  Linear in the number of variables on the path.  Raises
    [Invalid_argument] if the path mentions a variable outside [env]. *)

val size : t -> int
(** Number of distinct nodes reachable from the root, terminals included. *)

val support : t -> int list
(** Sorted list of variables the function actually depends on. *)

val sat_fraction : t -> float
(** Probability that [f] is true when every variable is an independent fair
    coin — i.e. the signal probability of the function under uniform inputs.
    Exact, computed by a memoized traversal. *)

val any_sat : t -> (int * bool) list option
(** One satisfying partial assignment (variable, value), or [None] for
    [False]. *)

(** {1 Variable order}

    A manager maps variables to {e levels} (depth from the root); the map
    is the identity until {!set_order} installs a static order. *)

val level : manager -> int -> int
(** Level of a variable under the installed order (identity without one). *)

val set_order : manager -> int array -> unit
(** [set_order m ord] installs the static order [ord] (level-to-variable, a
    permutation of [0 .. n-1]).  Only valid on a manager with no internal
    nodes yet — raises [Invalid_argument] otherwise, and on a non-
    permutation. *)

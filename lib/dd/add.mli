(** Algebraic decision diagrams (ADDs): reduced ordered decision diagrams
    with real-valued terminals.

    The paper represents the switching-capacitance function
    [C(x_i, x_f)] as an ADD built from the BDDs of the netlist's node
    functions (Eq. 4 / Fig. 6).  This module provides the symbolic operators
    the pseudo-code of Fig. 6 relies on ([of_bdd], [scale] = [add_times],
    [add] = [add_sum], [size] = [add_size]) plus the generic apply machinery
    and evaluation.

    Like {!Bdd}, nodes are hash-consed per {!manager}; leaves are shared by
    exact floating-point value. *)

type t = private
  | Leaf of { id : int; value : float }
  | Node of { id : int; mutable var : int; mutable low : t; mutable high : t }
      (** Invariant: [low != high] and both children sit on strictly deeper
          levels than [var] under the manager's current order.  The fields
          are mutable only for the in-place level swaps of the reordering
          engine — they never change the function a node denotes, and
          outside a reordering call diagrams are immutable. *)

type manager

val manager : unit -> manager

val clear_caches : manager -> unit
(** Drop the operation caches and reset the {!Perf} counters. *)

val perf : manager -> Perf.t
(** Computed-table hits/misses per operation ({e plus}, {e minus},
    {e times}, {e min}, {e max}, {e ite}, {e of_bdd}), peak allocated
    node count, and {!Approx} collapse passes.  The computed tables are
    direct-mapped and lossy, so an evicted entry counts as a miss when
    re-probed. *)

val unique_size : manager -> int
(** Current number of entries in the unique (hash-consing) table. *)

(** {1 Construction} *)

val const : manager -> float -> t

val of_bdd : manager -> ?one_value:float -> ?zero_value:float -> Bdd.t -> t
(** Convert a BDD to an ADD mapping [true] to [one_value] (default 1.0) and
    [false] to [zero_value] (default 0.0).  Variable indices are preserved,
    so the BDD and ADD managers must use the same variable numbering {e and
    the same variable order} (see {!set_order}). *)

val ite : manager -> Bdd.t -> t -> t -> t
(** [ite m guard g h] selects [g] where [guard] holds and [h] elsewhere. *)

(** {1 Arithmetic} *)

type binop = Plus | Minus | Times | Min | Max

val apply2 : manager -> binop -> t -> t -> t

val add : manager -> t -> t -> t
(** Pointwise sum — the paper's [add_sum]. *)

val sub : manager -> t -> t -> t
val mul : manager -> t -> t -> t
val pointwise_min : manager -> t -> t -> t
val pointwise_max : manager -> t -> t -> t

val scale : manager -> float -> t -> t
(** Multiply every terminal by a constant — the paper's [add_times]. *)

val offset : manager -> float -> t -> t
(** Add a constant to every terminal. *)

val map_leaves : manager -> (float -> float) -> t -> t
(** Apply an arbitrary function to every terminal value (memoized within the
    call).  The function must be well-defined on every terminal. *)

(** {1 Queries} *)

val node_id : t -> int
val equal : t -> t -> bool

val eval : t -> bool array -> float
(** Evaluate under an assignment indexed by variable — linear in the number
    of variables, the model-evaluation cost the paper advertises. *)

val size : t -> int
(** Number of distinct nodes reachable from the root, leaves included — the
    paper's [add_size], and the quantity bounded by [MAX] in Fig. 6.
    Manager-free (hash-table traversal); the hot construction loop uses
    {!size_under}/{!size_in} instead. *)

val size_under : manager -> t -> limit:int -> int option
(** [size_under m t ~limit] is [Some (size t)] when the size is at most
    [limit], and [None] otherwise.  Visits at most [limit + 1] distinct
    nodes using the manager's generation-stamped visit marks — no hashing,
    no allocation — so checking a size bound costs O(limit) however large
    the diagram is.  [t] must live in [m]. *)

val size_in : manager -> t -> int
(** Exact size via the manager's visit stamps, memoized per root id (O(1)
    when asked again for the same root).  [t] must live in [m]. *)

val postorder : manager -> t -> f:(int -> t -> int -> int -> unit) -> int
(** [postorder m t ~f] numbers the nodes reachable from [t] 0, 1, ... in
    DFS postorder, low child before high, so children come before parents
    and [t] is last.  It calls [f i node low high] once per node, in
    numbering order, with the numbers of the node's children ([-1] at
    leaves), and returns the count.  On the visit stamps: no hashing and
    no allocation.  [t] must live in [m]. *)

val internal_count : t -> int
(** Number of non-leaf nodes. *)

val terminal_values : t -> float list
(** Sorted list of distinct terminal values. *)

val support : t -> int list

val min_value : t -> float
(** Smallest terminal value reachable from the root, in one fold (no
    sorted-list detour); ordered by polymorphic [compare], matching
    [terminal_values]. *)

val max_value : t -> float
(** Largest terminal value reachable from the root — for a max-strategy
    model this is the circuit's (conservative) worst-case switching
    capacitance, used as the paper's constant upper-bound estimator.
    One fold over the reachable nodes; ordered by polymorphic
    [compare], matching [terminal_values]. *)

val fold_nodes : t -> init:'a -> f:('a -> t -> 'a) -> 'a
(** Fold over every distinct reachable node (each visited once, children
    before parents). *)

(** {1 Low-level} *)

val make_node : manager -> int -> t -> t -> t
(** [make_node m v low high] is the raw hash-consing constructor
    ([if v then high else low]); it enforces reduction ([low == high]
    collapses) and sharing.  [low] and [high] must only mention variables
    on levels strictly deeper than [v]'s (under the natural order:
    variables greater than [v]) — used by {!Approx} to rebuild diagrams
    bottom-up. *)

(** {1 Memory management}

    The unique table retains every intermediate result, so a long
    construction would otherwise hold (and probe against) millions of dead
    nodes.  Register the diagrams that must survive with {!protect}, then
    {!sweep}: every unregistered node is dropped and the unique table is
    rebuilt in place at a capacity fitted to the survivors.  Hash-consing
    canonicity is preserved across a sweep — live nodes stay physically
    equal, and the computed tables are invalidated so dead results cannot
    resurface.  {!Perf} counters keep running across a sweep. *)

val protect : manager -> t -> unit
(** Register a diagram as a GC root (refcounted: protect twice, unprotect
    twice). *)

val unprotect : manager -> t -> unit
(** Drop one protection.  Raises [Invalid_argument] if the diagram is not
    currently protected. *)

val root_count : manager -> int
(** Number of distinct protected roots. *)

val sweep : manager -> unit
(** Mark-and-sweep: keep exactly the nodes reachable from the protected
    roots, rebuild the unique and leaf tables in place, invalidate the
    computed tables.  Unreachable nodes become garbage for the OCaml GC. *)

(** {1 Variable order and dynamic reordering}

    A manager maps variables to {e levels} (depth from the root); the maps
    are the identity until changed.  {!set_order} installs a static order
    before any node exists; {!sift}, {!reorder_to} and {!swap_adjacent}
    reorder live diagrams in place — node identity, ids and denoted
    functions are all preserved, so protected roots stay valid and [eval]
    results are bit-for-bit unchanged.  The reordering entry points sweep
    to the protected roots first: anything unprotected is dropped. *)

val level : manager -> int -> int
(** Current level of a variable (identity for variables never reordered). *)

val var_order : manager -> vars:int -> int array
(** [var_order m ~vars] is the variables [0 .. vars-1] sorted by current
    level — the level-to-variable order restricted to the first [vars]
    variables, usable directly as a {!Compiled.compile} [?order]. *)

val set_order : manager -> int array -> unit
(** [set_order m ord] installs the static order [ord] (level-to-variable, a
    permutation of [0 .. n-1]).  Only valid on a manager with no internal
    nodes yet — raises [Invalid_argument] otherwise, and on a non-
    permutation. *)

type sift_stats = {
  swaps : int;       (** adjacent-level swaps performed *)
  size_before : int; (** live internal nodes when the pass started *)
  size_after : int;  (** live internal nodes when it finished *)
  capped : bool;     (** stopped early by [max_swaps] *)
}

val sift :
  ?group_pairs:bool -> ?max_growth:float -> ?max_swaps:int -> manager ->
  sift_stats
(** Sifting pass over the protected roots: every variable (or, with
    [group_pairs], every adjacent (even, odd) variable pair, moved as a
    unit so pair-based analyses such as {!Powermodel.Markov} stay exact)
    is moved through all levels by adjacent swaps and parked at the best
    position seen.  A variable's walk is abandoned early when the live
    node count exceeds [max_growth] (default 1.2) times its starting
    value.  [max_swaps] bounds the total number of adjacent swaps; the
    pass stops before a variable whose worst-case walk no longer fits, so
    a capped sift still leaves a consistent order ([capped] reports it).

    Sweeps to the protected roots first, then sifts exactly the live set.
    All computed tables, the {!of_bdd} memo generation and the size memo
    are invalidated.  Deterministic: same manager history, roots and
    arguments produce the same final order and sizes. *)

val reorder_to : manager -> int array -> sift_stats
(** [reorder_to m target] brings the live diagrams to the order [target]
    (level-to-variable for the first [Array.length target] levels) by
    adjacent swaps — the function-preserving counterpart of {!set_order}
    for a manager that already holds nodes.  Sweeps to the protected
    roots first; raises [Invalid_argument] if [target] is not a
    permutation of [0 .. n-1]. *)

val swap_adjacent : manager -> int -> unit
(** [swap_adjacent m lvl] performs the single adjacent-level swap of levels
    [lvl] and [lvl + 1] (sweeping to the protected roots first), mostly
    useful for tests.  Functions of all surviving nodes are preserved. *)

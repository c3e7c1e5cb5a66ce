(** A from-scratch pseudo-Boolean maximizer.

    Solves [maximize sum_g w_g * x_g  subject to  CNF clauses] for
    non-negative weights by branch-and-bound DPLL: two-watched-literal
    unit propagation, chronological backtracking and objective-bound
    pruning.  At the root every objective variable (of the 8192
    heaviest) is probed (asserted true and propagated): a conflicting
    probe fixes it false, the others
    yield pairwise exclusions, and the objective variables are covered
    greedily, heaviest first, by cliques of mutually exclusive variables.
    The achieved weight plus, per clique without a true member, its
    heaviest undecided weight bounds every completion of the current
    partial assignment.  A new incumbent raises that bound and the search
    goes on from where it stands; it never restarts.

    Leaves are visited in a fixed order (lexicographic over the decision
    order, hinted phase first) and no leaf that beats the incumbent is
    ever pruned, so the incumbents found, the returned [value] and the
    [witness] depend only on the problem and the hint, not on how hard
    the bound prunes.  Only the stats and a budget-stopped interval
    depend on the bound.

    Pruning arithmetic is done in {e scaled integers} (weights rounded up
    to multiples of [2^-20]), so no incremental float drift can ever
    prune a genuinely better completion.  Reported values are a canonical
    float fold of the weights in objective-array order, which for this
    repo's capacitance weights (all multiples of 0.5 fF, sums far below
    [2^53]) is the exact real sum — bit-identical to the ADD leaf values
    and the gate-level simulator.  Optimality proofs are exact whenever
    distinct objective values differ by more than [2^-19]; true of every
    netlist encoding here.

    The solver is deterministic: same problem, hint and (conflict-only)
    budget give the same witness, value and stats.  Wall-clock deadlines
    necessarily break stats determinism, so benchmarked runs should budget
    by conflicts. *)

type lit = int
(** A literal is [2*var] (positive) or [2*var + 1] (negated). *)

val pos : int -> lit
val neg : int -> lit
val var_of : lit -> int
val negate : lit -> lit

type problem = {
  nvars : int;
  clauses : lit array list;
      (** CNF over vars [0 .. nvars-1].  Duplicate literals are removed
          and tautological clauses dropped at load time; an empty clause
          is immediately unsatisfiable. *)
  objective : (int * float) array;
      (** [(var, weight)] with [weight >= 0], each var at most once.  The
          array order is the canonical summation order for reported
          values. *)
  decision_order : int array;
      (** Vars to branch on first, in preference order.  Remaining vars
          are branched on in index order only if propagation leaves them
          unassigned — for circuit encodings it never does. *)
  phase_hint : bool array;
      (** Per-var first branch direction, length [nvars]. *)
}

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;  (** logical conflicts + objective-bound prunes *)
  restarts : int;
      (** incumbent improvements (the search never restarts; the
          name is the one the [cfpm-bench/8] schema reports) *)
}

type proof =
  | Optimal  (** search space exhausted: [value] is the true maximum *)
  | Bounded of { upper : float; reason : Guard.Error.t }
      (** stopped by the budget: the true maximum lies in
          [value, upper]; [reason] is the typed resource error that
          stopped the search *)

type outcome = {
  value : float;        (** best objective found (canonical float fold) *)
  witness : bool array; (** a full assignment attaining [value] *)
  proof : proof;
  stats : stats;
}

val value_of : problem -> bool array -> float
(** The canonical objective fold over a full assignment. *)

val check : problem -> bool array -> bool
(** Does the assignment satisfy every clause? *)

val solve :
  ?budget:Guard.Budget.t ->
  ?hint:bool array ->
  problem ->
  (outcome, Guard.Error.t) result
(** Maximize.  [hint] is a warm-start assignment: if it satisfies the
    clauses it is installed as the initial incumbent (and its value as the
    initial pruning bound).  The budget's wall deadline and conflict
    ceiling are honoured cooperatively; hitting one mid-search returns
    [Bounded] when an incumbent exists, or [Error] with the same typed
    reason when none does.  An unsatisfiable instance is a [Validation]
    error.  Raises [Invalid_argument] on malformed problems (bad literal
    ranges, negative weights, wrong [phase_hint] length). *)

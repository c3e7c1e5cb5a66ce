(** Adversarial worst-case search — the independent PBO oracle.

    {!Analysis.worst_case_transition} answers "which transition maximizes
    [C(x_i, x_f)]" by ADD traversal, which needs the exact ADD to fit the
    node budget.  This module provides a second, independent route — the
    Tseitin/branch-and-bound encoding of {!Pbo} — with two duties:

    - {e cross-validation}: on circuits where the exact model fits, the
      PBO optimum must equal the ADD maximum to float equality (both are
      the same exact dyadic sum of load capacitances);
    - {e reach}: on circuits whose exact ADD blows the node budget, the
      PBO route still returns true worst-case values (or budget-bounded
      [value, upper] intervals) with concrete witnesses, feeding
      {!Bounds} and {!Compose} at RTL scale.

    Every solve runs under an [adversarial_solve] span and bumps the
    [pbo.*] metrics.  Budgets come from the argument or the ambient
    {!Guard.Budget} slot; only wall deadlines and conflict ceilings
    apply. *)

type result_ = {
  value : float;        (** worst switched capacitance found (fF) *)
  x_i : bool array;     (** witness initial input vector *)
  x_f : bool array;     (** witness final input vector *)
  optimal : bool;       (** proven maximum (exact ADD / exhausted search) *)
  upper : float;
      (** sound upper bound on the true maximum: [= value] when
          [optimal]; the solver's interval top when budget-bounded; the
          conservative ADD bound on an upper-bound model *)
  stats : Pbo.Solver.stats option;  (** PBO route only *)
  reason : Guard.Error.t option;
      (** the typed resource error that stopped a bounded solve *)
}

val worst_add : Model.t -> result_
(** The ADD traversal route ({!Analysis.worst_case_transition}).
    [optimal] iff the model is exact; on a collapsed upper-bound model
    the value is the conservative bound (and [upper] equals it). *)

val worst_add_compiled : Model.compiled -> result_
(** {!worst_add} over the compiled model's own triple program
    ({!Analysis.worst_case_transition_compiled}). *)

val worst_pbo :
  ?budget:Guard.Budget.t ->
  ?output_load:float ->
  ?loads:float array ->
  ?hint:bool array * bool array ->
  Netlist.Circuit.t ->
  (result_, Guard.Error.t) result
(** The PBO route: needs only the netlist, no ADD.  [hint] warm-starts
    the search with a known transition (default: all-zeros to all-ones).
    [Error] only when the budget expires before any incumbent exists —
    with the default hint that requires a pre-expired deadline. *)

type agreement = {
  add : result_;
  pbo : result_;
  comparable : bool;
      (** exact model and optimal solve: the values {e must} match *)
  agree : bool;
      (** [comparable] routes: float-equal values.  Non-comparable:
          the PBO value (a real, achieved capacitance) must not exceed
          the conservative ADD bound. *)
}

val cross_validate :
  ?budget:Guard.Budget.t ->
  ?output_load:float ->
  Model.t ->
  Netlist.Circuit.t ->
  (agreement, Guard.Error.t) result
(** Run both routes independently (the PBO side gets no ADD-derived
    hint) and compare.  The model must have been built from [circuit]
    with the same [output_load]. *)

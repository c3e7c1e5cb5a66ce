(** Analytical queries on a constructed model.

    A white-box model is a closed-form discrete function, so questions that
    need long simulation campaigns on black-box models become single
    diagram traversals: worst-case witnesses, exact expectations under any
    input statistics, per-input sensitivities.

    Each query is one memoized pass over a triple program
    ({!Dd.Compiled.repr}): a compiled model's own ([_compiled]), or the
    {!Model.triples} of a {!Model.t} — the same floats either way.  Passes
    share no mutable state, so one compiled model serves concurrent
    queries without a lock. *)

val worst_case_transition : Model.t -> bool array * bool array * float
(** [(x_i, x_f, value)] — a transition attaining the model's maximum.  On
    an exact model this is a true worst-case witness (the "input conditions
    that maximize the internal switching activity" of the worst-case
    literature the paper discusses); on an upper-bound model it attains the
    conservative bound.  Don't-care inputs are reported as [false].  One
    memoized subtree-max pass — O(|nodes|), not the O(depth × subtree) of
    re-sweeping both children at every level. *)

val worst_case_transition_compiled :
  Model.compiled -> bool array * bool array * float

val expected_capacitance : Model.t -> sp:float -> st:float -> float
(** Exact expectation of the model under the Markov stimulus statistics
    [(sp, st)] — the analytic counterpart of an infinitely long random
    simulation run ({!Dd.Markov.expectation}). *)

val expected_capacitance_compiled :
  Model.compiled -> sp:float -> st:float -> float

val toggle_sensitivity : Model.t -> int -> float
(** Expected capacitance when input [j] toggles minus when it holds, other
    inputs uniform — how power-hot that input is.  Raises
    [Invalid_argument] for an out-of-range input. *)

val toggle_sensitivities : Model.t -> float array
(** {!toggle_sensitivity} for every input. *)

val toggle_sensitivities_compiled : Model.compiled -> float array

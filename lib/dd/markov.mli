(** Markov input statistics over transition variables, and exact
    expectations under them.

    The collapse criterion of {!Approx} must decide how much damage
    replacing a sub-ADD by a constant does.  Under the uniform measure the
    near-diagonal region (transitions with few toggles) has vanishing mass,
    yet it is exactly where evaluation concentrates when the input toggle
    rate is low — so a uniform-mass criterion silently sacrifices low-[st]
    accuracy.  This module defines the Markov measure of any [(sp, st)]
    stimulus statistics; {!Approx} computes node masses and moments under
    it, so that the collapse is robust across a family of statistics while
    remaining characterization-free (no simulation anywhere), and
    {!expectation} evaluates a compiled model's exact expectation.

    Variables are assumed to follow the interleaved transition convention
    (variable [2j] = input [j] at [t_i], variable [2j+1] = input [j] at
    [t_f]); the one-variable dependency between the two copies is threaded
    through the reduced DAG as a "pending partner" context. *)

type statistics = { sp : float; st : float }

val uniform : statistics

val default_anchors : statistics list
(** The family of statistics the robust collapse criterion guards: a spread
    of toggle rates at [sp = 0.5] plus skewed signal probabilities. *)

val p_toggle_given : initial:bool -> statistics -> float
(** Markov toggle probability conditioned on the initial value. *)

val expectation : statistics -> Compiled.repr -> float
(** Exact expectation of a triple program's function under the
    statistics: one bottom-up pass of conditional first moments,
    memoized per (triple, pending-partner context); O(triples). *)

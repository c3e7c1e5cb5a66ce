(** ADD approximation by node collapsing — the paper's [add_approx].

    Node collapsing replaces whole sub-ADDs by single constant leaves
    (Section 3 of the paper).  The {e strategy} decides what constant
    replaces a collapsed node:

    - {!Average}: an average of the sub-function; best for average-power
      accuracy.
    - {!Upper_bound}: the sub-function's maximum.  The compressed function
      is pointwise [>=] the original, so the model remains a conservative
      upper bound; sums of such bounds stay conservative because
      [max(a) + max(b) >= max(a + b)].
    - {!Lower_bound}: the symmetric conservative lower bound.

    The {e weighting} decides how collapse candidates are ranked (and, for
    the robust mode, which average replaces them):

    - {!Unweighted} is the paper's literal criterion — the sub-function's
      own variance (Eq. 5-7) or max-replacement mse (Eq. 8).
    - {!Uniform_mass} multiplies that score by the node's reach probability
      under uniform inputs: the global mean square error the collapse
      injects.
    - {!Robust} (the default, over {!Markov.default_anchors}) ranks by the
      worst damage across a family of input statistics and replaces by the
      anchor-mass-weighted conditional average.  Uniform criteria assign
      vanishing weight to the near-diagonal (few-toggle) region that
      dominates evaluation at low toggle rates, quietly destroying the
      statistics-independence the paper claims; the robust criterion
      protects it while staying fully analytic (see {!Markov}). *)

type strategy = Average | Upper_bound | Lower_bound

type weighting =
  | Unweighted
  | Uniform_mass
  | Robust of Markov.statistics list
      (** an empty anchor list means {!Markov.default_anchors} *)

val default_weighting : weighting

val strategy_name : strategy -> string

val compress :
  ?weighting:weighting ->
  ?resift:bool ->
  Add.manager -> strategy:strategy -> max_size:int -> Add.t -> Add.t
(** [compress m ~strategy ~max_size f] returns [f] unchanged if
    [Add.size f <= max_size]; otherwise collapses lowest-priority sub-ADDs
    (searching for roughly the fewest collapses that reach the target) and
    returns the rebuilt diagram, whose size is [<= max_size].  [max_size]
    must be at least 1: collapsing everything leaves a single constant
    estimator, the degenerate model the paper mentions.  Each actual
    collapse pass is counted into the target manager's {!Perf}
    counters.

    [resift] (default false) runs a pair-grouped {!Add.sift} on the result
    before returning.  {b End-of-build use only}: the sift sweeps the
    manager to its protected roots, so everything except the result (and
    any roots the caller protected) is dropped, and the manager's variable
    order changes — any paired BDD manager would fall out of sync for
    future {!Add.of_bdd} calls.  The returned diagram itself is reordered
    in place, function-preserved. *)

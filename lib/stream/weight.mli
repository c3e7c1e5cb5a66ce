(** Observation-weight schedules for online estimators (after
    OnlineStats.jl).

    An online mean is updated as [m <- (1 - g) * m + g * x] where the
    step [g] comes from a weight schedule evaluated at the observation's
    global 1-based index [n].  The schedule decides what the estimator
    remembers:

    - {!Equal} — [g = 1/n]: every observation counts the same; the
      estimator converges to the all-time statistic.
    - [Exponential lambda] — [g = 1] for the first observation, [lambda]
      afterwards: an EWMA that tracks the {e current} regime and forgets
      the past at rate [1 - lambda].
    - [Bounded (w, floor)] — [max (at w n) floor]: starts like [w],
      never becomes less reactive than [floor]; the usual compromise
      between convergence and drift tracking.
    - [Scaled (w, c)] — [c * at w n]: a damped copy of [w].

    Schedules are first-class values so {!Stats} block summaries can be
    built in parallel: a worker that knows its block's global offset
    evaluates the same [g] sequence a sequential run would. *)

type t =
  | Equal
  | Exponential of float  (** step [lambda] in (0, 1] *)
  | Bounded of t * float  (** floor in (0, 1] *)
  | Scaled of t * float  (** factor in (0, 1] *)

val validate : t -> (t, Guard.Error.t) result
(** Check every parameter is in (0, 1]. *)

val at : t -> n:int -> float
(** The step for observation [n] (1-based), always in (0, 1].  The first
    observation's step is forced to 1 at the top level, so an estimator
    needs no prior mean.  Raises [Invalid_argument] when [n < 1]. *)

val fill : t -> n0:int -> float array -> pos:int -> len:int -> unit
(** [fill w ~n0 dst ~pos ~len] sets [dst.(pos + i)] to
    [at w ~n:(n0 + i)] for [i] in [0 .. len - 1], bit for bit, without
    boxing a step.  Raises [Invalid_argument] when [n0 < 1] or the run
    does not lie inside [dst]. *)

val to_string : t -> string
(** Render in the {!of_string} grammar, e.g. ["bounded(equal,0.05)"]. *)

val of_string : string -> (t, Guard.Error.t) result
(** Parse a schedule spec (the [--weight] flag grammar):
    [equal] | [exp:L] | [bounded(SPEC,F)] | [scaled(SPEC,C)].
    Case-insensitive; [exponential:L] is accepted for [exp:L]. *)

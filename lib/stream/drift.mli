(** Windowed workload-drift detection over [(sp, st)].

    The stream is cut into tumbling windows of [window] vectors; each
    closed window's per-input signal and transition probabilities are
    compared against a {e reference} window.  The distance is
    [max(mean_j |sp_ref_j - sp_j|, mean_j |st_ref_j - st_j|)] — computed
    from integer counts, so the decision sequence is bit-deterministic.

    Hysteresis: the detector fires only while {e armed} and the distance
    reaches [high]; firing rebases the reference onto the triggering
    window (the new regime becomes normal) and moves to {e cooling},
    where no further events fire until the distance falls back to [low].
    A stream oscillating across the trigger boundary therefore produces
    one event, not one per window.  Windows holding fewer than
    [min_samples] vectors (the final partial window) are never judged.

    The [drift_check] {!Guard.Fault} point is exercised at every window
    judgement; an injected fault skips that judgement (counted in
    {!skipped_checks}) instead of crashing the stream. *)

type config = {
  window : int;  (** vectors per tumbling window *)
  min_samples : int;  (** smallest window ever judged *)
  high : float;  (** trigger distance while armed *)
  low : float;  (** re-arm distance while cooling, [low <= high] *)
}

val default_config : config
(** window 2048, min_samples 512, high 0.15, low 0.08 — sized so the
    serially-correlated Markov stimulus (lag-1 autocorrelation ~0.9 at
    [st = 0.05]) stays under the trigger on a steady workload. *)

val validate_config : config -> (config, Guard.Error.t) result

type event = {
  at : int;  (** global vector index closing the triggering window *)
  distance : float;
  ref_sp : float;  (** reference window mean [sp] over inputs *)
  ref_st : float;
  cur_sp : float;  (** triggering window mean [sp] *)
  cur_st : float;
}

val event_json : event -> Json.t

type t

val create : ?config:config -> bits:int -> unit -> t
(** Raises [Invalid_argument] on an invalid config or [bits < 1]. *)

val room : t -> int
(** Vectors left before the current window closes (at least 1). *)

val observe_block :
  t -> Stimulus.Block.t -> first:int -> len:int -> event option
(** Feed vectors [[first, first + len)] of a packed block; [len] must not
    exceed {!room}, so at most the last of them closes a window, and
    [Some event] is returned when that window trips the detector.
    Raises [Invalid_argument] on a width mismatch or a range outside the
    block or the window. *)

val observe : t -> bool array -> event option
(** {!observe_block} of one vector. *)

val flush : t -> event option
(** Judge the current partial window, if it holds at least
    [min_samples] vectors; call once at end of stream. *)

val bits : t -> int

val config : t -> config

val seen : t -> int
(** Vectors observed. *)

val events : t -> int
val skipped_checks : t -> int
val armed : t -> bool

val to_json : t -> Json.t
(** Checkpoint state (integer counts only — restores exactly). *)

val of_json : Json.t -> (t, Guard.Error.t) result

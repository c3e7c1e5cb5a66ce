(** Mergeable online telemetry statistics over a vector stream.

    One estimator tracks, for a stream of [bits]-wide input vectors with
    an optional per-transition power observation:

    - per-input signal probability [sp] (ones / vectors) and transition
      probability [st] (toggles / transitions) as exact integer counts;
    - equal-weight power mean/variance (Welford) plus running min/max;
    - a weighted power mean under a {!Weight} schedule, kept as the
      affine map an observation block applies to any prior mean, so
      blocks compose.

    {b Determinism.}  {!consume_block} always splits its input into fixed
    {!shard_block}-sized blocks, builds one summary per block (each
    worker knows its block's global offsets and its predecessor vector,
    so boundary toggles, boundary power and weight steps are computed
    inside the block) and folds the summaries left-to-right.  The split
    depends only on counts — never on the worker count or timing — so a
    snapshot is byte-identical for every [CFPM_JOBS]/[?jobs] value.

    {b Merge semantics.}  [merge a b] treats [b] as observed after [a].
    Counts, extrema, the Welford moments (combined with the symmetric
    pairwise formulas) and the weighted-mean decay are exactly
    commutative; the weighted-mean value and first/last vectors are
    inherently order-dependent.  Merging is associative in exact
    arithmetic; the float moments can differ in the last bits under
    re-association, which is why every consumer folds in block order. *)

type t

val create : ?weight:Weight.t -> bits:int -> unit -> t
(** Fresh empty estimator ([weight] defaults to {!Weight.Equal}).
    Raises [Invalid_argument] when [bits < 1]. *)

val copy : t -> t
val weight : t -> Weight.t
val bits : t -> int

val merge : t -> t -> t
(** [merge a b] — a fresh summary equivalent to observing [a]'s block
    then [b]'s.  Inputs are unchanged.  Raises [Invalid_argument] on
    mismatched [bits] or weight schedules. *)

val merge_into : t -> t -> unit
(** In-place [merge]: the first argument becomes the combination. *)

val shard_block : int
(** Vectors per parallel shard (fixed, so the split never depends on the
    worker count). *)

val consume_block :
  ?jobs:int -> ?power:float array -> t -> Stimulus.Block.t -> first:int -> unit
(** Fold vectors [[first, length)] of a packed block into the estimator,
    sharding {!shard_block}-sized runs over the {!Parallel.Pool}.  The
    first of them follows the estimator's last vector (when it has one);
    any block vector before [first] is ignored.  [power] holds one
    observation per transition the fold closes, in order: [length -
    first] of them when the estimator already had a last vector, one
    fewer otherwise.  Byte-identical results for every job count.
    Raises [Invalid_argument] on a width mismatch or too few powers. *)

val consume :
  ?jobs:int ->
  ?power:(x_i:bool array -> x_f:bool array -> float) ->
  t ->
  bool array array ->
  unit
(** {!consume_block} over the packed vectors, with [power] evaluated for
    every transition, including the one from the estimator's last
    vector. *)

(** {1 Readings} *)

val vectors : t -> int
val transitions : t -> int

val last : t -> int array option
(** The words ({!Stimulus.Block}) of the most recent vector — the
    transition context a resumed consumer continues from. *)

val sp : t -> float array
(** Per-input measured signal probability ([0.] on an empty stream). *)

val st : t -> float array
(** Per-input measured transition probability. *)

val mean_sp : t -> float
val mean_st : t -> float

val power_count : t -> int
val power_mean : t -> float
val power_variance : t -> float
(** Population variance; [0.] under 2 observations. *)

val power_min : t -> float
(** [infinity] when no power was observed. *)

val power_max : t -> float
(** [neg_infinity] when no power was observed. *)

val weighted_power_mean : t -> float
(** The mean under the weight schedule — equals {!power_mean} up to
    float association under [Equal]. *)

(** {1 Serialization} *)

val snapshot_json : t -> Json.t
(** The deterministic external snapshot: weight, counts, per-input
    [sp]/[st], power moments.  Byte-identical across job counts — the
    artifact CI diffs. *)

val to_json : t -> Json.t
(** Full checkpoint state.  {!Json}'s exact float round-trip makes
    [of_json (to_json t)] restore [t] bit for bit. *)

val of_json : Json.t -> (t, Guard.Error.t) result

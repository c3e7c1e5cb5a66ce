(** Zero-delay gate-level simulation with switched-capacitance accounting.

    This is the golden reference of the paper's experiments: on each input
    transition it evaluates the netlist before and after, and charges the
    load capacitance of every gate output that rises (Eq. 1–3).  Energy is
    [Vdd^2 * C]; short-circuit currents, charge sharing and glitches are
    parasitic phenomena outside the zero-delay golden model by design. *)

type t

val default_vdd : float
(** Supply voltage used when none is given (3.3 V, typical of the paper's
    era). *)

val create :
  ?output_load:float -> ?loads:float array -> Netlist.Circuit.t -> t
(** Compile a circuit: back-annotates per-net loads via
    {!Netlist.Circuit.loads}, or uses [loads] verbatim (indexed by net;
    must cover every net) when supplied. *)

val circuit : t -> Netlist.Circuit.t
val loads : t -> float array

val eval : t -> bool array -> bool array
(** All net values under the given primary-input vector. *)

val eval_outputs : t -> bool array -> bool array

val switched_capacitance : t -> bool array -> bool array -> float
(** [switched_capacitance t x_i x_f] is the total load (fF) of gate outputs
    rising in the transition — the golden value the paper's
    [C(x_i, x_f)] models.  A batch of one through
    {!switched_capacitance_batch}. *)

val switched_capacitance_batch :
  t -> (bool array * bool array) array -> float array
(** [switched_capacitance_batch t pairs] is [switched_capacitance] of
    every [(x_i, x_f)] pair, in order, computed word-parallel: net
    values are held as [int] words with one pattern per bit (63 per
    word) and each gate is one bitwise expression.  Each pattern's loads
    are summed in ascending net order from [0.0], so every value is
    bit-identical to {!switched_capacitance_of_values} over {!eval}.
    Raises [Invalid_argument] when a vector's length is not the input
    count. *)

val switched_capacitance_of_values : t -> bool array -> bool array -> float
(** Same as {!switched_capacitance}, from precomputed net-value arrays —
    the boolean reference the word-parallel kernel is checked against. *)

val energy : ?vdd:float -> t -> bool array -> bool array -> float
(** [Vdd^2 * C], in fJ when loads are fF. *)

(** {1 Sequence runs} *)

type run = {
  patterns : int;
  average : float;
  maximum : float;
  total : float;
  per_pattern : float array;
}

val run : t -> bool array array -> run
(** Simulate a vector sequence (at least two vectors) and account every
    consecutive transition, through the word-parallel kernel of
    {!switched_capacitance_batch}; [total] and [maximum] fold
    [per_pattern] in pattern order. *)

val average_power : ?vdd:float -> period:float -> run -> float
(** Mean supply power for a clock period in seconds (fJ/s when loads are
    fF). *)

val worst_case_capacitance_exhaustive : t -> float
(** Exact maximum over all input-vector pairs, by exhaustive enumeration —
    exponential, restricted to circuits with at most 13 inputs.  Used by
    tests to validate conservative bounds. *)

(** Minimal JSON: an AST, a deterministic printer and a parser.

    The repo deliberately carries no third-party JSON dependency; this
    module covers exactly what the bench harness and {!Dd.Perf} need —
    machine-readable reports whose rendering is byte-for-byte reproducible
    run-to-run, so CI can diff two [BENCH_results.json] files for the
    parallel-determinism check.

    Floats are printed with the shortest [%g] representation that parses
    back to the identical bit pattern — compared via
    [Int64.bits_of_float], so [-0.0] keeps its sign — falling back to
    [%.17g]; [of_string (to_string j)] therefore round-trips finite
    values exactly.  Within one [to_string] call each distinct bit
    pattern is rendered once and reused.  Non-finite floats (NaN, [infinity],
    [neg_infinity]) have no JSON representation and render as the
    [null] literal, so every emitted document stays valid JSON; they
    re-parse as {!Null}, which is the one lossy corner of the round
    trip and is deliberate. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float_repr : float -> string
(** The token {!to_string} writes for [Float f]: the shortest [%g]
    form that parses back to [f]'s bit pattern (else [%.17g]), with a
    [.0] suffix when it would otherwise read back as an {!Int}, and
    [null] for a non-finite [f].  Exposed so a writer that emits the
    same floats many times can render each one once. *)

val to_string : ?pretty:bool -> t -> string
(** Render to JSON text.  [pretty] (default [true]) indents with two
    spaces; compact otherwise.  Object member order is preserved. *)

val of_string : string -> (t, string) result
(** Parse JSON text.  Numbers must follow the JSON grammar (RFC 8259:
    no [+1], [.5], [01] or [1.]) and a [\u] escape takes exactly four
    hex digits.  Numbers without [.], [e] or [E] parse as {!Int}, all
    others as {!Float}.  The error string carries a character
    offset. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** [member k (Obj _)] is the first binding of [k], if any. *)

val to_int : t -> int option
val to_float : t -> float option
(** {!Int} widens to float; {!Float} does not narrow to int. *)

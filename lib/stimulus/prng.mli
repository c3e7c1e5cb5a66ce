(** Deterministic pseudo-random number generation (SplitMix64).

    The experiment harness must be reproducible run-to-run, so it never uses
    the global [Random] state: every stream is derived from an explicit
    seed. *)

type t

val create : int -> t
(** A fresh generator from a seed. *)

val copy : t -> t

val next_int64 : t -> int64

val float : t -> float
(** Uniform in [[0, 1)]. *)

val bool : t -> p:float -> bool
(** Bernoulli draw with probability [p] of [true]. *)

val step_bits : t -> rise:float -> fall:float -> prev:int -> n:int -> int
(** [n] draws folded into the low bits of an [int], bit 0 first: bit [b]
    is [bool ~p:rise] where bit [b] of [prev] is 0, and [not (bool
    ~p:fall)] where it is 1 — exactly the draws [n] calls of {!bool}
    would make, in the same order. *)

val int : t -> bound:int -> int
(** Uniform in [[0, bound)]; [bound] must be positive. *)

val split : t -> t
(** Derive an independent stream (consumes one draw from the parent). *)

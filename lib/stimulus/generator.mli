(** Random stimulus with prescribed input statistics.

    The paper's evaluation sweeps the average signal probability [sp] and
    the average transition probability [st] of the primary inputs, running
    concurrent RTL and gate-level simulations on random sequences with those
    statistics.  This module produces such sequences from a stationary
    per-bit two-state Markov chain. *)

val feasible_st : sp:float -> float -> float
(** The largest achievable toggle rate for a given [sp] is
    [2 * min(sp, 1 - sp)]; returns [st] clamped to it. *)

val rates : sp:float -> st:float -> float * float
(** [(p01, p10)] Markov transition rates realizing (sp, st); raises
    [Invalid_argument] for [sp] outside (0, 1) or [st] outside [0, 1]. *)

val rates_checked :
  sp:float -> st:float -> (float * float, Guard.Error.t) result
(** {!rates} with bad statistics reported as a [Validation]-kind
    {!Guard.Error} (carrying the offending [sp]/[st]) instead of an
    exception. *)

val draw_first : Prng.t -> sp:float -> Block.t -> unit
(** Append the chain's first vector to the block, each bit drawn at the
    stationary [sp]. *)

val draw_step :
  Prng.t -> p01:float -> p10:float -> prev:int array -> Block.t -> unit
(** Append one step of the per-bit chain from the vector whose words are
    [prev], with the {!rates} of the target statistics: a 0 bit rises
    with probability [p01], a 1 bit falls with probability [p10].  One
    draw per bit, in bit order — the draw order {!sequence} and the
    stream generator source share. *)

val sequence :
  Prng.t -> bits:int -> length:int -> sp:float -> st:float ->
  bool array array
(** A stationary random stream of [length] vectors of [bits] bits. *)

val sequence_checked :
  Prng.t -> bits:int -> length:int -> sp:float -> st:float ->
  (bool array array, Guard.Error.t) result
(** {!sequence} with every invalid request — non-positive shape, [sp]
    outside (0, 1), [st] outside [0, 1], NaNs — returned as a
    [Validation]-kind {!Guard.Error}. *)

val uniform_pair : Prng.t -> bits:int -> bool array * bool array
(** Two independent uniform vectors (one transition), for spot checks. *)

type measured = { measured_sp : float; measured_st : float }

val measure : bool array array -> measured
(** Empirical statistics of a stream (used by tests to validate
    {!sequence}). *)

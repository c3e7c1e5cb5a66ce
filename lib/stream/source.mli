(** Vector-stream sources: the phased stimulus generator and vector
    files.

    A source yields {e records}; each record is either a vector or a
    malformed entry (quarantined by the pipeline, never a crash).  Both
    sources are deterministic functions of their construction arguments,
    which is what makes checkpoint/resume exact: {!skip} fast-forwards a
    fresh source over the records a resumed run already consumed and the
    remainder of the stream is identical to the uninterrupted one.

    The generator source is a phase schedule over the two-state Markov
    chain of {!Stimulus.Generator}: each phase holds [(sp, st)] for
    [count] vectors, and the chain {e continues} across a phase switch
    (the switch changes the transition rates, not the state) — which is
    exactly the workload-drift shape {!Drift} exists to detect. *)

type phase = { sp : float; st : float; count : int }

type item =
  | Vector of bool array
  | Malformed of string  (** diagnostic; the record is quarantined *)

type t

val generator :
  seed:int -> bits:int -> phase list -> (t, Guard.Error.t) result
(** Finite stream of [sum count] vectors.  Each phase's statistics are
    validated like {!Stimulus.Generator.sequence_checked}; the phase
    list must be non-empty with positive counts. *)

val of_file : path:string -> bits:int -> (t, Guard.Error.t) result
(** One record per line: a vector is exactly [bits] characters of
    [0]/[1]; anything else (including a blank line) is [Malformed].
    Opening a missing file is a [Resource] error. *)

val bits : t -> int

(** {1 Record blocks} *)

type block = {
  vectors : Stimulus.Block.t;  (** the block's vectors, in record order *)
  mutable records : int;  (** records read, vectors and malformed alike *)
  mutable malformed : (int * string) list;
      (** each malformed record, oldest first, with the number of the
          block's vectors that precede it *)
}

val create_block : t -> capacity:int -> block
(** An empty block for up to [capacity] records of this source's
    width. *)

val fill : t -> block -> unit
(** Replace the block's contents with the next [capacity] records, or
    with what is left when fewer remain: a block holding fewer records
    than its capacity means the source is exhausted. *)

(** {1 One record at a time} *)

val next : t -> item option
(** [None] when exhausted.  A one-record {!fill}. *)

val skip : t -> int -> unit
(** Discard the next [n] records (vectors and malformed lines alike). *)

val close : t -> unit
(** Release the file handle; idempotent.  The generator is unaffected. *)

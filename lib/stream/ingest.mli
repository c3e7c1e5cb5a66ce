(** Bounded ingest queue with typed backpressure.

    The producer (a source-reader thread) and the consumer (the
    telemetry fold) meet here; the pipeline moves whole blocks of
    records as one item.  The queue is bounded, and the [policy]
    decides what a full queue does to a producer:

    - {!Block}: the push waits — lossless, and the deterministic choice
      for identity checks (every vector reaches the statistics);
    - {!Shed}: the push fails immediately with a typed [Resource] error
      ([reason=overloaded], the same shape {!Serve.Server} sheds
      connections with) and the item is dropped; {!sheds} counts the
      dropped items.

    Close-to-drain: {!close} lets the consumer finish the backlog;
    {!pop} returns [None] only once the queue is closed {e and} empty. *)

type policy = Block | Shed

type 'a t

val create : ?capacity:int -> policy -> 'a t
(** [capacity] defaults to 1024 items; must be positive. *)

val push : 'a t -> 'a -> (unit, Guard.Error.t) result
(** Enqueue (or block / shed, per policy).  Pushing to a closed queue is
    a [Validation] error. *)

val pop : 'a t -> 'a option
(** Dequeue, blocking while the queue is open and empty; [None] once
    closed and drained. *)

val close : 'a t -> unit
(** Idempotent; wakes every blocked producer and consumer. *)

val closed : 'a t -> bool
val length : 'a t -> int
val sheds : 'a t -> int

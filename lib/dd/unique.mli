(** The unique (hash-consing) table shared by {!Bdd} and {!Add}.

    Open addressing with linear probing over parallel [int] arrays keyed by
    a node's (variable, low id, high id) triple, plus an array of the nodes
    themselves.  Capacity is a power of two, [2^12] at creation and doubled
    once the table is half full.  The table never allocates nodes: a
    lookup is {!find} (a slot index), then a read of [node] on a hit or
    {!fill} on a miss, so the manager decides ids and counters between the
    two.  The fields are readable so that check costs no call. *)

type 'n t = private {
  mutable var : int array;  (** key variable per slot; [-1] = free *)
  mutable low : int array;  (** key low-child id *)
  mutable high : int array; (** key high-child id *)
  mutable node : 'n array;  (** the node stored under the key *)
  mutable count : int;      (** number of keys held *)
  dummy : 'n;               (** placeholder in free node slots *)
}

val create : 'n -> 'n t
(** [create dummy] is an empty table; [dummy] fills free node slots and is
    never returned by a successful lookup. *)

val find : 'n t -> int -> int -> int -> int
(** [find t v l h] is the slot holding key [(v, l, h)], or the free slot
    where that key belongs when it is absent ([var] is [-1] there). *)

val fill : 'n t -> int -> int -> int -> int -> 'n -> unit
(** [fill t i v l h n] stores [n] under [(v, l, h)] in the free slot [i]
    that [find t v l h] just returned, then grows the table if that made
    it half full. *)

val reinsert : 'n t -> int -> int -> int -> 'n -> unit
(** [reinsert t v l h n] stores an existing node under a key the table
    does not hold, growing first if the insertion would make the table
    half full.  Used by in-place reordering, whose rewritten keys are
    collision-free by canonicity. *)

val remove : 'n t -> int -> int -> int -> unit
(** Delete a key by backward shift: the cluster after the freed slot is
    rehashed, so every remaining key stays reachable.  Raises [Failure] if
    the key is absent. *)

val iter : ('n -> unit) -> 'n t -> unit
(** Visit the stored nodes in slot order. *)

val rebuild : 'n t -> keep:('n -> bool) -> unit
(** Keep exactly the nodes satisfying [keep], in a fresh table of the
    smallest power-of-two capacity (at least [2^12]) that is at least four
    times their number. *)

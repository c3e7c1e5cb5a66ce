(** LRU cache of loaded model artifacts, bounded by estimated bytes.

    The serve layer keeps hot models resident so the store is touched
    once per model, not once per request — the "query forever" half of
    the paper's economy.  The ceiling is a memory-pressure valve: when
    the estimated footprint ({!Store.approx_bytes}) of the resident set
    exceeds it, least-recently-used entries are dropped (the entry most
    recently returned to a caller is never the victim; requests holding
    an evicted entry keep it alive until they finish).

    Thread safety: lookups, insertions and evictions are serialized on
    an internal mutex; the {e loading} of a missing artifact runs outside
    it, so a slow disk never blocks cache hits.  Two racing loads of the
    same artifact both succeed and one result is dropped — wasteful,
    harmless, and rare.

    Concurrency of the entries themselves: an entry is immutable once
    loaded (its {!leaf_text} slot is filled once, atomically), and every
    query ({!Handler}'s evaluations and analyses alike)
    reads the compiled program without a lock; see DESIGN.md "The query
    server". *)

type entry = {
  loaded : Store.artifact;
      (** header + compiled program: no model, no ADD manager *)
  bytes : int;  (** {!Store.approx_bytes} of the artifact's meta *)
  leaf_text : string array option Atomic.t;  (** read through {!leaf_text} *)
}

val leaf_text : entry -> string array
(** Every leaf of the entry's program as {!Json.float_repr} renders it,
    indexed like the leaf table.  Rendered on the first call, then
    published atomically and shared by every later call and thread, so
    a response writer renders each leaf once per load, not once per
    request. *)

type t

val create : ?byte_ceiling:int -> ?root:string -> unit -> t
(** [byte_ceiling] (default: unbounded) caps the resident set; at least
    one entry always stays resident, so a single over-ceiling model
    still serves.  [root], when given, is prepended to every model path
    and paths may not escape it (no absolute paths, no [..] components)
    — the server's protection against requests walking the filesystem. *)

val resolve : t -> string -> (string, Guard.Error.t) result
(** The on-disk path a model name maps to ([Validation] error when it
    escapes [root]). *)

val find_or_load : t -> string -> (entry, Guard.Error.t) result
(** Cache hit, or {!Store.load_compiled} + insert (+ evict down to the ceiling).
    Load failures are returned verbatim — and never cached, so a later
    request retries a repaired artifact. *)

val on_load : t -> (string -> Store.meta -> unit) -> unit
(** Install a hook called after every {e fresh} load (cache misses
    only), with the model name as requested and the artifact's metadata.
    The serve journal uses it to record warm-start keys. *)

val stats : t -> Json.t
(** [{"entries", "bytes", "byte_ceiling", "hits", "misses",
    "evictions"}] — deterministic member order. *)

val clear : t -> unit
(** Drop every entry (counters keep counting). *)

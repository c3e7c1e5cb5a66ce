(** Packed vector blocks: the one representation a vector stream moves
    in, from the source through the statistics, the model and the
    gate-level labels.

    A block holds up to [capacity] vectors of [width] bits.  Each vector
    takes a fixed {!stride} of [⌈width / 63⌉] [int] words; bit [i] of a
    vector is bit [i mod 63] of its word [i / 63], and the unused high
    bits of the last word are zero.  Stride 1 covers every circuit up to
    63 inputs, and wider vectors take the same code paths. *)

type t

val bits_per_word : int
(** 63: the bits of one [int] word a vector uses. *)

val stride_of : width:int -> int
(** Words per vector, [⌈width / 63⌉]. *)

val create : width:int -> capacity:int -> t
(** An empty block.  Raises [Invalid_argument] when [width < 1] or
    [capacity < 0]. *)

val width : t -> int
val stride : t -> int
val capacity : t -> int

val length : t -> int
(** Vectors held, [0 .. capacity]. *)

val clear : t -> unit
(** Drop every vector (the storage is kept). *)

val truncate : t -> int -> unit
(** Keep only the first [n <= length] vectors. *)

val words : t -> int array
(** The backing store: vector [k] is words [[k * stride, (k + 1) *
    stride)].  For kernels that walk a block; only the first [length]
    vectors are meaningful. *)

val push_zero : t -> int
(** Append an all-zero vector and return its index.  Raises
    [Invalid_argument] when the block is full. *)

val get : t -> int -> int -> bool
(** [get t k i] is bit [i] of vector [k]. *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Copy [len] vectors; [dst]'s length grows to cover them.  Raises
    [Invalid_argument] on a width mismatch or a range outside either
    block. *)

val store : t -> int -> int array -> unit
(** [store t k dst] copies vector [k]'s words into [dst] (at least
    [stride] long). *)

val push_words : t -> int array -> unit
(** Append the vector whose words are the first [stride] of the array. *)

(** {1 Bool arrays and bitstrings} *)

val of_bools : width:int -> bool array array -> t
(** A full block of the given vectors.  Raises [Invalid_argument] when
    one's length is not [width]. *)

val to_bools : t -> int -> bool array

val bit : int array -> int -> bool
(** [bit words i] is bit [i] of the vector whose words are [words]. *)

val to_string : width:int -> int array -> string
(** The [0]/[1] rendering of a vector's words, bit 0 first. *)

val of_string : width:int -> string -> int array option
(** The words of a [0]/[1] string of exactly [width] characters; [None]
    for any other length or character. *)

val parse_into : t -> string -> bool
(** Append the vector a [0]/[1] line spells, when it is exactly [width]
    characters of [0]/[1]; [false] (and nothing appended) otherwise. *)

(** {1 Counting} *)

val tally :
  t -> first:int -> len:int -> prev:int array option ->
  ones:int array -> toggles:int array -> unit
(** Add, for each bit [i], the ones of vectors [[first, first + len)] to
    [ones.(i)] and their toggles to [toggles.(i)]: each vector is
    compared with the block vector before it, and the first one with
    [prev] (no toggle is counted for it when [prev] is [None]). *)

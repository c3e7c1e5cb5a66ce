(* Packed vector blocks.  A vector is [stride] consecutive words of
   [words], bits in ascending order from bit 0 of its first word; the
   high bits past [width] stay zero, so whole-word comparisons and XORs
   are exact. *)

type t = { width : int; stride : int; words : int array; mutable length : int }

let bits_per_word = 63
let stride_of ~width = (width + bits_per_word - 1) / bits_per_word

let create ~width ~capacity =
  if width < 1 then invalid_arg "Block.create: width must be >= 1";
  if capacity < 0 then invalid_arg "Block.create: negative capacity";
  let stride = stride_of ~width in
  { width; stride; words = Array.make (capacity * stride) 0; length = 0 }

let width t = t.width
let stride t = t.stride
let capacity t = Array.length t.words / t.stride
let length t = t.length
let words t = t.words
let clear t = t.length <- 0

let truncate t n =
  if n < 0 || n > t.length then invalid_arg "Block.truncate: out of range";
  t.length <- n

let push_zero t =
  let k = t.length in
  if k >= capacity t then invalid_arg "Block.push_zero: block is full";
  for j = k * t.stride to ((k + 1) * t.stride) - 1 do
    Array.unsafe_set t.words j 0
  done;
  t.length <- k + 1;
  k

let get t k i =
  (t.words.((k * t.stride) + (i / bits_per_word)) lsr (i mod bits_per_word))
  land 1
  = 1

let set t k i =
  let j = (k * t.stride) + (i / bits_per_word) in
  t.words.(j) <- t.words.(j) lor (1 lsl (i mod bits_per_word))

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if src.width <> dst.width then invalid_arg "Block.blit: width mismatch";
  if
    len < 0 || src_pos < 0 || dst_pos < 0
    || src_pos + len > src.length
    || dst_pos + len > capacity dst
  then invalid_arg "Block.blit: out of range";
  Array.blit src.words (src_pos * src.stride) dst.words (dst_pos * dst.stride)
    (len * src.stride);
  if dst_pos + len > dst.length then dst.length <- dst_pos + len

let store t k dst =
  let base = k * t.stride in
  for w = 0 to t.stride - 1 do
    dst.(w) <- t.words.(base + w)
  done

let push_words t src =
  let k = push_zero t in
  Array.blit src 0 t.words (k * t.stride) t.stride

let push_bools t v =
  if Array.length v <> t.width then
    invalid_arg "Block.push_bools: vector width mismatch";
  let k = push_zero t in
  for i = 0 to t.width - 1 do
    if v.(i) then set t k i
  done

let of_bools ~width vs =
  let t = create ~width ~capacity:(Array.length vs) in
  Array.iter (push_bools t) vs;
  t

let to_bools t k =
  let v = Array.make t.width false in
  for i = 0 to t.width - 1 do
    if get t k i then v.(i) <- true
  done;
  v

let bit w i = (w.(i / bits_per_word) lsr (i mod bits_per_word)) land 1 = 1
let to_string ~width w = String.init width (fun i -> if bit w i then '1' else '0')

(* [s] into words [words.(base) ..], which are zero on entry *)
let parse_words ~width s words base =
  String.length s = width
  &&
  let rec go i =
    i = width
    ||
    match String.unsafe_get s i with
    | '0' -> go (i + 1)
    | '1' ->
      let j = base + (i / bits_per_word) in
      words.(j) <- words.(j) lor (1 lsl (i mod bits_per_word));
      go (i + 1)
    | _ -> false
  in
  go 0

let of_string ~width s =
  let w = Array.make (stride_of ~width) 0 in
  if parse_words ~width s w 0 then Some w else None

let parse_into t s =
  String.length s = t.width
  &&
  let k = push_zero t in
  parse_words ~width:t.width s t.words (k * t.stride)
  || begin
       t.length <- k;
       false
     end

(* Counting is bit-sliced: a run of up to 15 vectors is added into four
   bit planes per word (plane j holds bit j of every bit position's
   running count, one ripple-carry addition per vector), and the planes
   are added into the per-bit counts once per run. *)
let run_length = 15

(* Add the count held in planes [c0 .. c3] at bit b to [counts.(base +
   b)], for b < nb. *)
let add_planes counts base nb c0 c1 c2 c3 =
  for b = 0 to nb - 1 do
    let v =
      ((c0 lsr b) land 1)
      lor (((c1 lsr b) land 1) lsl 1)
      lor (((c2 lsr b) land 1) lsl 2)
      lor (((c3 lsr b) land 1) lsl 3)
    in
    Array.unsafe_set counts (base + b) (Array.unsafe_get counts (base + b) + v)
  done

let tally t ~first ~len ~prev ~ones ~toggles =
  if
    first < 0 || len < 0 || first + len > t.length
    || Array.length ones < t.width
    || Array.length toggles < t.width
  then invalid_arg "Block.tally: out of range";
  (match prev with
  | Some p when Array.length p < t.stride ->
    invalid_arg "Block.tally: short predecessor"
  | _ -> ());
  let s = t.stride and words = t.words in
  for w = 0 to s - 1 do
    let base = w * bits_per_word in
    let nb = Int.min bits_per_word (t.width - base) in
    (* the previous word, and a mask that voids the first vector's
       toggles when it has no predecessor *)
    let p = ref (match prev with Some p -> p.(w) | None -> 0) in
    let mask = ref (if Option.is_some prev then -1 else 0) in
    let k = ref first in
    while !k < first + len do
      let m = Int.min run_length (first + len - !k) in
      let o0 = ref 0 and o1 = ref 0 and o2 = ref 0 and o3 = ref 0 in
      let t0 = ref 0 and t1 = ref 0 and t2 = ref 0 and t3 = ref 0 in
      for q = !k to !k + m - 1 do
        let x = Array.unsafe_get words ((q * s) + w) in
        let c = !o0 land x in
        o0 := !o0 lxor x;
        let c' = !o1 land c in
        o1 := !o1 lxor c;
        let c'' = !o2 land c' in
        o2 := !o2 lxor c';
        o3 := !o3 lxor c'';
        let d = (x lxor !p) land !mask in
        let c = !t0 land d in
        t0 := !t0 lxor d;
        let c' = !t1 land c in
        t1 := !t1 lxor c;
        let c'' = !t2 land c' in
        t2 := !t2 lxor c';
        t3 := !t3 lxor c'';
        p := x;
        mask := -1
      done;
      add_planes ones base nb !o0 !o1 !o2 !o3;
      add_planes toggles base nb !t0 !t1 !t2 !t3;
      k := !k + m
    done
  done

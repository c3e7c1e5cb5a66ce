(* The unique (hash-consing) table of the BDD and ADD managers: open
   addressing with linear probing over parallel int arrays.  The key is the
   (var, low id, high id) triple itself, so probing never hashes a boxed
   tuple.  [var] = -1 marks an empty slot; capacity is a power of two,
   doubled at 50% load.

   Every function here is a plain top-level function over ints: the
   compiler inlines no closure or functor argument, and [find] sits on the
   path of every node construction.  Slot positions depend on the exact
   insertion history, and the managers' slot-order walks (reorder sessions,
   sweeps) decide the order fresh nodes get their ids in, so each operation
   below keeps its probe and growth sequence exactly. *)

type 'n t = {
  mutable var : int array;
  mutable low : int array;
  mutable high : int array;
  mutable node : 'n array;
  mutable count : int;
  dummy : 'n;
}

let initial_bits = 12

let alloc t n =
  t.var <- Array.make n (-1);
  t.low <- Array.make n 0;
  t.high <- Array.make n 0;
  t.node <- Array.make n t.dummy

let create dummy =
  let t =
    { var = [||]; low = [||]; high = [||]; node = [||]; count = 0; dummy }
  in
  alloc t (1 lsl initial_bits);
  t

let hash v l h = Ct.mix (v lxor (l * 0x85EBCA77) lxor (h * 0xC2B2AE3D))

let find t v l h =
  let mask = Array.length t.var - 1 in
  let i = ref (hash v l h land mask) in
  while
    let uv = t.var.(!i) in
    uv >= 0 && not (uv = v && t.low.(!i) = l && t.high.(!i) = h)
  do
    i := (!i + 1) land mask
  done;
  !i

(* Write a key into the first empty slot from its hash, leaving the count
   alone.  Keys are unique, so an empty slot is all it needs. *)
let place t v l h n =
  let mask = Array.length t.var - 1 in
  let j = ref (hash v l h land mask) in
  while t.var.(!j) >= 0 do
    j := (!j + 1) land mask
  done;
  t.var.(!j) <- v;
  t.low.(!j) <- l;
  t.high.(!j) <- h;
  t.node.(!j) <- n

let grow t =
  let var = t.var and low = t.low and high = t.high and node = t.node in
  alloc t (2 * Array.length var);
  for i = 0 to Array.length var - 1 do
    if var.(i) >= 0 then place t var.(i) low.(i) high.(i) node.(i)
  done

let fill t i v l h n =
  t.var.(i) <- v;
  t.low.(i) <- l;
  t.high.(i) <- h;
  t.node.(i) <- n;
  t.count <- t.count + 1;
  if 2 * t.count >= Array.length t.var then grow t

let reinsert t v l h n =
  if 2 * (t.count + 1) >= Array.length t.var then grow t;
  place t v l h n;
  t.count <- t.count + 1

(* Linear-probing deletion: free the slot, then rehash the cluster that
   follows it so no probe stops early at the hole. *)
let remove t v l h =
  let i = find t v l h in
  if t.var.(i) < 0 then failwith "Dd: reorder lost a unique-table entry";
  let mask = Array.length t.var - 1 in
  t.var.(i) <- -1;
  t.node.(i) <- t.dummy;
  t.count <- t.count - 1;
  let j = ref ((i + 1) land mask) in
  while t.var.(!j) >= 0 do
    let v' = t.var.(!j) and l' = t.low.(!j) and h' = t.high.(!j)
    and n' = t.node.(!j) in
    t.var.(!j) <- -1;
    t.node.(!j) <- t.dummy;
    place t v' l' h' n';
    j := (!j + 1) land mask
  done

let iter f t =
  for i = 0 to Array.length t.var - 1 do
    if t.var.(i) >= 0 then f t.node.(i)
  done

let rebuild t ~keep =
  let var = t.var and low = t.low and high = t.high and node = t.node in
  let survivors = ref [] and n = ref 0 in
  for i = 0 to Array.length var - 1 do
    if var.(i) >= 0 && keep node.(i) then begin
      survivors := i :: !survivors;
      incr n
    end
  done;
  let capacity = ref (1 lsl initial_bits) in
  while !capacity < 4 * !n do
    capacity := 2 * !capacity
  done;
  alloc t !capacity;
  t.count <- !n;
  List.iter (fun i -> place t var.(i) low.(i) high.(i) node.(i)) !survivors

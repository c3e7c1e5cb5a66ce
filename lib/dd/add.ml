type t =
  | Leaf of { id : int; value : float }
  | Node of { id : int; mutable var : int; mutable low : t; mutable high : t }
(* Mutable for one client only: the in-place adjacent-level swap of the
   reordering engine below, which preserves id, physical identity and the
   denoted function.  Everything else treats nodes as immutable. *)

type binop = Plus | Minus | Times | Min | Max

(* Never returned (every probe checks its key first); placeholder for the
   result slots of the direct-mapped caches and the unique table. *)
let dummy = Leaf { id = -1; value = nan }

let cache_bits = 16
let ite_bits = 14
let of_bdd_bits = 14

type manager = {
  mutable next_id : int;
  leaves : (int64, t) Hashtbl.t; (* keyed by IEEE bits for exact sharing *)
  unique : t Unique.t; (* rebuilt in place by {!sweep} *)
  (* Variable order: [perm] maps variable -> level, [invperm] level ->
     variable; identity beyond their length (empty = natural order). *)
  mutable perm : int array;
  mutable invperm : int array;
  (* Computed tables: fixed-size, direct-mapped, lossy. *)
  cache : t Ct.cache;      (* binary ops, packed (op, a, b) *)
  ite_cache : t Ct.cache2; (* (guard, g) packed + h *)
  (* of_bdd memo, generation-stamped: entries are valid only while the
     (one_value, zero_value) pair is unchanged; switching pairs bumps the
     generation, invalidating every entry in O(1). *)
  ob_key : int array; (* BDD node id; -1 = empty *)
  ob_gen : int array;
  ob_res : t array;
  ob_mask : int;
  mutable ob_generation : int;
  mutable ob_one : int64;
  mutable ob_zero : int64;
  (* GC roots: id -> (refcount, node).  {!sweep} keeps exactly the nodes
     reachable from here. *)
  roots : (int, int * t) Hashtbl.t;
  (* Size tracking: generation-stamped visit marks indexed by node id, so
     size queries neither hash nor allocate; plus an exact-size memo per
     root id for repeated queries. *)
  mutable stamp : int array;
  mutable stamp_gen : int;
  size_memo : (int, int) Hashtbl.t;
  perf : Perf.t;
  (* apply counters indexed by op tag; fetched at creation so the hot
     loops never hash a counter name *)
  c_apply : Perf.counter array;
  c_ite : Perf.counter;
  c_of_bdd : Perf.counter;
}

let op_names = [| "plus"; "minus"; "times"; "min"; "max" |]

let manager () =
  let perf = Perf.create () in
  let obn = 1 lsl of_bdd_bits in
  {
    next_id = 0;
    leaves = Hashtbl.create 256;
    unique = Unique.create dummy;
    perm = [||];
    invperm = [||];
    cache = Ct.cache ~bits:cache_bits ~dummy;
    ite_cache = Ct.cache2 ~bits:ite_bits ~dummy;
    ob_key = Array.make obn (-1);
    ob_gen = Array.make obn 0;
    ob_res = Array.make obn dummy;
    ob_mask = obn - 1;
    ob_generation = 0;
    ob_one = Int64.bits_of_float 1.0;
    ob_zero = Int64.bits_of_float 0.0;
    roots = Hashtbl.create 16;
    stamp = Array.make 1024 0;
    stamp_gen = 0;
    size_memo = Hashtbl.create 64;
    perf;
    c_apply = Array.map (Perf.counter perf) op_names;
    c_ite = Perf.counter perf "ite";
    c_of_bdd = Perf.counter perf "of_bdd";
  }

let clear_caches m =
  Ct.clear m.cache;
  Ct.clear2 m.ite_cache;
  m.ob_generation <- m.ob_generation + 1;
  Hashtbl.reset m.size_memo;
  Perf.reset m.perf

let perf m = m.perf

let unique_size m = m.unique.Unique.count

let node_id = function Leaf l -> l.id | Node n -> n.id

let level m v = if v < Array.length m.perm then m.perm.(v) else v

let ensure_order m n =
  let len = Array.length m.perm in
  if n > len then begin
    m.perm <- Array.init n (fun i -> if i < len then m.perm.(i) else i);
    m.invperm <- Array.init n (fun i -> if i < len then m.invperm.(i) else i)
  end

let set_order m ord =
  if m.unique.Unique.count > 0 then
    invalid_arg "Add.set_order: manager already contains nodes";
  let n = Array.length ord in
  let perm = Array.make n (-1) in
  Array.iteri
    (fun lvl v ->
      if v < 0 || v >= n || perm.(v) >= 0 then
        invalid_arg "Add.set_order: not a permutation of 0..n-1";
      perm.(v) <- lvl)
    ord;
  m.perm <- perm;
  m.invperm <- Array.copy ord

let var_order m ~vars =
  let a = Array.init vars Fun.id in
  Array.sort (fun x y -> compare (level m x) (level m y)) a;
  a

let const m value =
  let bits = Int64.bits_of_float value in
  match Hashtbl.find_opt m.leaves bits with
  | Some l -> l
  | None ->
    Ct.check_id m.next_id;
    let l = Leaf { id = m.next_id; value } in
    m.next_id <- m.next_id + 1;
    Hashtbl.add m.leaves bits l;
    l

let mk m v low high =
  if low == high then low
  else begin
    let il = node_id low and ih = node_id high in
    let u = m.unique in
    let i = Unique.find u v il ih in
    if u.Unique.var.(i) >= 0 then u.Unique.node.(i)
    else begin
      Ct.check_id m.next_id;
      let n = Node { id = m.next_id; var = v; low; high } in
      m.next_id <- m.next_id + 1;
      Perf.note_peak m.perf m.next_id;
      Unique.fill u i v il ih n;
      n
    end
  end

let of_bdd m ?(one_value = 1.0) ?(zero_value = 0.0) b =
  let ov = Int64.bits_of_float one_value
  and zv = Int64.bits_of_float zero_value in
  if not (Int64.equal ov m.ob_one && Int64.equal zv m.ob_zero) then begin
    m.ob_generation <- m.ob_generation + 1;
    m.ob_one <- ov;
    m.ob_zero <- zv
  end;
  let gen = m.ob_generation in
  let rec go b =
    match b with
    | Bdd.False -> const m zero_value
    | Bdd.True -> const m one_value
    | Bdd.Node n ->
      let i = Ct.mix n.id land m.ob_mask in
      if m.ob_key.(i) = n.id && m.ob_gen.(i) = gen then begin
        Perf.hit m.c_of_bdd;
        m.ob_res.(i)
      end
      else begin
        Perf.miss m.c_of_bdd;
        let r = mk m n.var (go n.low) (go n.high) in
        m.ob_key.(i) <- n.id;
        m.ob_gen.(i) <- gen;
        m.ob_res.(i) <- r;
        r
      end
  in
  go b

let op_tag = function Plus -> 0 | Minus -> 1 | Times -> 2 | Min -> 3 | Max -> 4

let eval_op op a b =
  match op with
  | Plus -> a +. b
  | Minus -> a -. b
  | Times -> a *. b
  | Min -> Float.min a b
  | Max -> Float.max a b

let is_commutative = function
  | Plus | Times | Min | Max -> true
  | Minus -> false

let top_var m a b =
  match a, b with
  | Node na, Node nb ->
    if level m na.var <= level m nb.var then na.var else nb.var
  | Node na, Leaf _ -> na.var
  | Leaf _, Node nb -> nb.var
  | Leaf _, Leaf _ -> invalid_arg "Add.top_var: two leaves"

let cofactors f v =
  match f with
  | Node n when n.var = v -> (n.low, n.high)
  | Leaf _ | Node _ -> (f, f)

let apply2 m op a b =
  let tag = op_tag op in
  let ctr = m.c_apply.(tag) in
  let commutative = is_commutative op in
  let cache = m.cache in
  let rec go a b =
    let ia = node_id a and ib = node_id b in
    (* Normalize commutative operand order for better cache hits. *)
    let a, b, ia, ib =
      if commutative && ia > ib then (b, a, ib, ia) else (a, b, ia, ib)
    in
    let key = Ct.pack tag ia ib in
    let i = Ct.slot cache key in
    if cache.Ct.keys.(i) = key then begin
      Perf.hit ctr;
      cache.Ct.vals.(i)
    end
    else begin
      Perf.miss ctr;
      let r =
        match a, b with
        | Leaf la, Leaf lb -> const m (eval_op op la.value lb.value)
        | _ ->
          let v = top_var m a b in
          let a0, a1 = cofactors a v and b0, b1 = cofactors b v in
          mk m v (go a0 b0) (go a1 b1)
      in
      cache.Ct.keys.(i) <- key;
      cache.Ct.vals.(i) <- r;
      r
    end
  in
  go a b

let add m a b = apply2 m Plus a b
let sub m a b = apply2 m Minus a b
let mul m a b = apply2 m Times a b
let pointwise_min m a b = apply2 m Min a b
let pointwise_max m a b = apply2 m Max a b

let map_leaves m f t =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo (node_id t) with
    | Some r -> r
    | None ->
      let r =
        match t with
        | Leaf l -> const m (f l.value)
        | Node n -> mk m n.var (go n.low) (go n.high)
      in
      Hashtbl.add memo (node_id t) r;
      r
  in
  go t

let scale m c t = if c = 1.0 then t else map_leaves m (fun v -> c *. v) t
let offset m c t = if c = 0.0 then t else map_leaves m (fun v -> c +. v) t

let ite m guard g h =
  let cache = m.ite_cache in
  let rec go guard g h =
    match guard with
    | Bdd.True -> g
    | Bdd.False -> h
    | Bdd.Node nf ->
      if g == h then g
      else begin
        let k1 = Ct.pack2 nf.id (node_id g) and k2 = node_id h in
        let i = Ct.slot2 cache k1 k2 in
        if cache.Ct.k1.(i) = k1 && cache.Ct.k2.(i) = k2 then begin
          Perf.hit m.c_ite;
          cache.Ct.vals2.(i)
        end
        else begin
          Perf.miss m.c_ite;
          let v = nf.var in
          let v =
            match g with
            | Node n when level m n.var < level m v -> n.var
            | _ -> v
          in
          let v =
            match h with
            | Node n when level m n.var < level m v -> n.var
            | _ -> v
          in
          let f0, f1 =
            if nf.var = v then (nf.low, nf.high) else (guard, guard)
          in
          let g0, g1 = cofactors g v in
          let h0, h1 = cofactors h v in
          let r = mk m v (go f0 g0 h0) (go f1 g1 h1) in
          cache.Ct.k1.(i) <- k1;
          cache.Ct.k2.(i) <- k2;
          cache.Ct.vals2.(i) <- r;
          r
        end
      end
  in
  go guard g h

let equal a b = a == b

let rec eval t env =
  match t with
  | Leaf l -> l.value
  | Node n ->
    if n.var >= Array.length env then
      invalid_arg "Add.eval: environment too short";
    if env.(n.var) then eval n.high env else eval n.low env

let fold_nodes t ~init ~f =
  let seen = Hashtbl.create 64 in
  let acc = ref init in
  let rec go t =
    let id = node_id t in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      (match t with
      | Leaf _ -> ()
      | Node n ->
        go n.low;
        go n.high);
      acc := f !acc t
    end
  in
  go t;
  !acc

let size t = fold_nodes t ~init:0 ~f:(fun n _ -> n + 1)

(* ------------------------------------------------------------------ *)
(* Size tracking on the manager's visit stamps: no hashing, no
   allocation, and an early exit for bounded queries. *)

let ensure_stamp m =
  if Array.length m.stamp < m.next_id then begin
    let n = ref (2 * Array.length m.stamp) in
    while !n < m.next_id do
      n := 2 * !n
    done;
    let fresh = Array.make !n 0 in
    Array.blit m.stamp 0 fresh 0 (Array.length m.stamp);
    m.stamp <- fresh
  end

exception Size_over

let stamp_count m t ~limit =
  ensure_stamp m;
  m.stamp_gen <- m.stamp_gen + 1;
  let gen = m.stamp_gen and stamp = m.stamp in
  let count = ref 0 in
  let rec go t =
    let id = node_id t in
    if stamp.(id) <> gen then begin
      stamp.(id) <- gen;
      incr count;
      if !count > limit then raise Size_over;
      match t with
      | Leaf _ -> ()
      | Node n ->
        go n.low;
        go n.high
    end
  in
  go t;
  !count

let size_under m t ~limit =
  match stamp_count m t ~limit with
  | n -> Some n
  | exception Size_over -> None

let size_in m t =
  let id = node_id t in
  match Hashtbl.find_opt m.size_memo id with
  | Some n -> n
  | None ->
    let n = stamp_count m t ~limit:max_int in
    Hashtbl.add m.size_memo id n;
    n

(* Stamps [base + i] mark the nodes numbered so far; every earlier stamp
   is below [base], and [stamp_gen] moves past the last one so later
   queries never see them. *)
let postorder m t ~f =
  ensure_stamp m;
  let base = m.stamp_gen + 1 and stamp = m.stamp in
  let next = ref 0 in
  let number id t l h =
    let i = !next in
    incr next;
    stamp.(id) <- base + i;
    f i t l h;
    i
  in
  let rec go t =
    let id = node_id t in
    if stamp.(id) >= base then stamp.(id) - base
    else
      match t with
      | Leaf _ -> number id t (-1) (-1)
      | Node n ->
        let l = go n.low in
        let h = go n.high in
        number id t l h
  in
  ignore (go t : int);
  m.stamp_gen <- base + !next;
  !next

let internal_count t =
  fold_nodes t ~init:0 ~f:(fun n t ->
      match t with Leaf _ -> n | Node _ -> n + 1)

let terminal_values t =
  fold_nodes t ~init:[] ~f:(fun acc t ->
      match t with Leaf l -> l.value :: acc | Node _ -> acc)
  |> List.sort_uniq compare

let support t =
  fold_nodes t ~init:[] ~f:(fun acc t ->
      match t with Leaf _ -> acc | Node n -> n.var :: acc)
  |> List.sort_uniq compare

(* One fold, no sort: the extremum under polymorphic [compare] — the
   same total order [terminal_values] sorts by, so these agree with the
   old head/last-of-sorted-list reads bit for bit (including -0.0 < 0.0
   and nan-below-everything). *)
let extremum ~name ~keep_new t =
  match
    fold_nodes t ~init:None ~f:(fun acc u ->
        match u with
        | Node _ -> acc
        | Leaf l -> (
          match acc with
          | None -> Some l.value
          | Some b -> if keep_new (compare l.value b) then Some l.value else acc))
  with
  | Some v -> v
  | None -> invalid_arg name

let min_value t =
  extremum ~name:"Add.min_value: empty diagram" ~keep_new:(fun c -> c < 0) t

let max_value t =
  extremum ~name:"Add.max_value: empty diagram" ~keep_new:(fun c -> c > 0) t

let make_node = mk

(* ------------------------------------------------------------------ *)
(* Root-registered mark-and-sweep.  [protect]/[unprotect] maintain a
   refcount per root; [sweep] keeps exactly the nodes reachable from the
   live roots, rebuilding the unique table and the leaf table in place.
   The computed tables are invalidated wholesale: a cached result that
   died would otherwise be resurrected outside the unique table and break
   hash-consing canonicity.  Node ids are never reused, so probes keyed by
   dead ids can only miss.  Perf counters are deliberately left running —
   a sweep is memory management, not a new measurement window. *)

let protect m t =
  let id = node_id t in
  match Hashtbl.find_opt m.roots id with
  | Some (n, _) -> Hashtbl.replace m.roots id (n + 1, t)
  | None -> Hashtbl.replace m.roots id (1, t)

let unprotect m t =
  let id = node_id t in
  match Hashtbl.find_opt m.roots id with
  | Some (1, _) -> Hashtbl.remove m.roots id
  | Some (n, x) -> Hashtbl.replace m.roots id (n - 1, x)
  | None -> invalid_arg "Add.unprotect: diagram is not protected"

let root_count m = Hashtbl.length m.roots

let sweep m =
  let live = Hashtbl.create (4 * (Hashtbl.length m.roots + 1)) in
  let rec mark t =
    let id = node_id t in
    if not (Hashtbl.mem live id) then begin
      Hashtbl.add live id ();
      match t with
      | Leaf _ -> ()
      | Node n ->
        mark n.low;
        mark n.high
    end
  in
  Hashtbl.iter (fun _ (_, t) -> mark t) m.roots;
  Unique.rebuild m.unique ~keep:(fun node -> Hashtbl.mem live (node_id node));
  (* prune dead leaves *)
  let dead = ref [] in
  Hashtbl.iter
    (fun bits l -> if not (Hashtbl.mem live (node_id l)) then dead := bits :: !dead)
    m.leaves;
  List.iter (Hashtbl.remove m.leaves) !dead;
  (* invalidate the computed tables and the size memo *)
  Ct.clear m.cache;
  Ct.clear2 m.ite_cache;
  m.ob_generation <- m.ob_generation + 1;
  Hashtbl.reset m.size_memo

(* ------------------------------------------------------------------ *)
(* Dynamic variable reordering: CUDD-style sifting over in-place
   adjacent-level swaps.

   The swap of levels l and l+1 (variables u and v) rewrites exactly the
   u-nodes that have a v-child, in place: such a node keeps its id and
   physical identity but becomes a v-node over fresh-or-shared u-children
   built from the four grandcofactors, so every parent pointer and every
   denoted function is preserved.  u-nodes without a v-child simply
   change level (their var stays u), and v-nodes are untouched except
   that some may lose their last parent and die.  Unique-table keys never
   collide during the rewrite: a (v, new_low, new_high) entry would
   denote the same function as the rewritten node, and canonicity says
   that function had exactly one live representative before the swap —
   the node being rewritten.

   Liveness is tracked with a per-session refcount (parents + root
   pins, the roots coming from the manager's protect table); nodes that
   drop to zero are deleted from the unique table immediately
   (backward-shift deletion), cascading to their children, so the table
   always holds exactly the live node set and sifting's size objective is
   honest.  Leaves are value-keyed and never deleted during a session
   (leaf reuse cannot break canonicity; a later {!sweep} prunes the dead
   ones).

   The computed tables are invalidated at the end of a session: ids are
   never reused and functions are preserved, but a cached result could
   name a node whose table entry died, and resurrecting it would break
   canonicity.  The of_bdd generation is bumped and the size memo reset
   for the same reason — stamp-based size queries stay sound because ids
   never change, but the per-root size memo would be stale the moment a
   swap reshapes the diagram under an unchanged root id. *)

type sift_stats = {
  swaps : int;
  size_before : int;
  size_after : int;
  capped : bool;
}

let default_max_growth = 1.2

type session = {
  mutable refs : int array;
  mutable at : t list array;
  mutable live : int;
  mutable swaps : int;
}

let ensure_refs s n =
  if n > Array.length s.refs then begin
    let cap = ref (2 * Array.length s.refs) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let fresh = Array.make !cap 0 in
    Array.blit s.refs 0 fresh 0 (Array.length s.refs);
    s.refs <- fresh
  end

let session_of m roots nlevels =
  let s =
    {
      refs = Array.make (max 1024 m.next_id) 0;
      at = Array.make (max 1 nlevels) [];
      live = 0;
      swaps = 0;
    }
  in
  Unique.iter
    (fun node ->
      match node with
      | Node n ->
        s.live <- s.live + 1;
        let l = level m n.var in
        s.at.(l) <- node :: s.at.(l);
        (match n.low with
        | Node c -> s.refs.(c.id) <- s.refs.(c.id) + 1
        | Leaf _ -> ());
        (match n.high with
        | Node c -> s.refs.(c.id) <- s.refs.(c.id) + 1
        | Leaf _ -> ())
      | Leaf _ -> ())
    m.unique;
  List.iter
    (fun r ->
      match r with
      | Node n -> s.refs.(n.id) <- s.refs.(n.id) + 1
      | Leaf _ -> ())
    roots;
  s

let swap_adjacent_in m s lvl =
  let u = m.invperm.(lvl) and v = m.invperm.(lvl + 1) in
  let list_a = s.at.(lvl) and list_b = s.at.(lvl + 1) in
  let new_a = ref [] and new_b = ref [] in
  let pending = ref [] in
  let release c =
    match c with
    | Node cn ->
      s.refs.(cn.id) <- s.refs.(cn.id) - 1;
      if s.refs.(cn.id) = 0 then pending := c :: !pending
    | Leaf _ -> ()
  in
  List.iter
    (fun node ->
      match node with
      | Node n when s.refs.(n.id) > 0 ->
        let f0 = n.low and f1 = n.high in
        let low_hits =
          match f0 with Node c -> c.var = v | Leaf _ -> false
        and high_hits =
          match f1 with Node c -> c.var = v | Leaf _ -> false
        in
        if not (low_hits || high_hits) then new_b := node :: !new_b
        else begin
          let f00, f01 =
            match f0 with
            | Node c when c.var = v -> (c.low, c.high)
            | _ -> (f0, f0)
          and f10, f11 =
            match f1 with
            | Node c when c.var = v -> (c.low, c.high)
            | _ -> (f1, f1)
          in
          Unique.remove m.unique u (node_id f0) (node_id f1);
          let acquire c =
            match c with
            | Node cn -> s.refs.(cn.id) <- s.refs.(cn.id) + 1
            | Leaf _ -> ()
          in
          let attach a b =
            if a == b then begin
              acquire a;
              a
            end
            else begin
              let before = m.next_id in
              let r = mk m u a b in
              if m.next_id > before then begin
                ensure_refs s m.next_id;
                acquire a;
                acquire b;
                s.live <- s.live + 1;
                new_b := r :: !new_b
              end;
              acquire r;
              r
            end
          in
          let nl = attach f00 f10 in
          let nh = attach f01 f11 in
          release f0;
          release f1;
          n.var <- v;
          n.low <- nl;
          n.high <- nh;
          Unique.reinsert m.unique v (node_id nl) (node_id nh) node;
          new_a := node :: !new_a
        end
      | _ -> ())
    list_a;
  let rec drain () =
    match !pending with
    | [] -> ()
    | c :: rest ->
      pending := rest;
      (match c with
      | Node cn when s.refs.(cn.id) = 0 ->
        Unique.remove m.unique cn.var (node_id cn.low) (node_id cn.high);
        s.live <- s.live - 1;
        release cn.low;
        release cn.high
      | _ -> ());
      drain ()
  in
  drain ();
  List.iter
    (fun node ->
      match node with
      | Node n when s.refs.(n.id) > 0 && n.var = v -> new_a := node :: !new_a
      | _ -> ())
    list_b;
  s.at.(lvl) <- !new_a;
  s.at.(lvl + 1) <- !new_b;
  m.invperm.(lvl) <- v;
  m.invperm.(lvl + 1) <- u;
  m.perm.(u) <- lvl + 1;
  m.perm.(v) <- lvl;
  s.swaps <- s.swaps + 1

let invalidate_after_reorder m =
  Ct.clear m.cache;
  Ct.clear2 m.ite_cache;
  m.ob_generation <- m.ob_generation + 1;
  Hashtbl.reset m.size_memo

let level_span m =
  let max_lvl = ref (-1) in
  Unique.iter
    (function Node n -> max_lvl := max !max_lvl (level m n.var) | Leaf _ -> ())
    m.unique;
  !max_lvl + 1

let validate_pairs m nlevels =
  let k = ref 0 in
  while 2 * !k < nlevels do
    let e = m.invperm.(2 * !k) and o = m.invperm.((2 * !k) + 1) in
    if e land 1 <> 0 || o <> e + 1 then
      invalid_arg
        "sift: group_pairs requires an order of adjacent (even, odd) \
         variable pairs";
    incr k
  done

let root_list m = Hashtbl.fold (fun _ (_, t) acc -> t :: acc) m.roots []

let swap_adjacent m lvl =
  if lvl < 0 then invalid_arg "Add.swap_adjacent: negative level";
  sweep m;
  ensure_order m (max (lvl + 2) (level_span m));
  let roots = root_list m in
  let s = session_of m roots (Array.length m.invperm) in
  swap_adjacent_in m s lvl;
  if s.live <> m.unique.Unique.count then
    failwith "Add.swap_adjacent: internal accounting mismatch";
  invalidate_after_reorder m

let sift ?(group_pairs = false) ?(max_growth = default_max_growth) ?max_swaps
    m =
  if not (max_growth >= 1.0) then
    invalid_arg "Add.sift: max_growth must be >= 1.0";
  (match max_swaps with
  | Some k when k < 0 -> invalid_arg "Add.sift: max_swaps must be >= 0"
  | _ -> ());
  sweep m;
  let nlevels =
    let n = level_span m in
    if group_pairs && n land 1 = 1 then n + 1 else n
  in
  ensure_order m nlevels;
  let w = if group_pairs then 2 else 1 in
  if group_pairs then validate_pairs m nlevels;
  let roots = root_list m in
  let s = session_of m roots nlevels in
  let size0 = s.live in
  let ngroups = nlevels / w in
  let budget_left =
    ref (match max_swaps with Some k -> k | None -> max_int)
  in
  let capped = ref false in
  if ngroups > 1 then begin
    let gsize g =
      let total = ref 0 in
      for lv = g * w to (g * w) + w - 1 do
        List.iter
          (fun node ->
            match node with
            | Node n when s.refs.(n.id) > 0 -> incr total
            | _ -> ())
          s.at.(lv)
      done;
      !total
    in
    let by_size = Array.init ngroups (fun g -> (gsize g, g)) in
    Array.sort
      (fun (sa, ga) (sb, gb) ->
        match compare sb sa with 0 -> compare ga gb | c -> c)
      by_size;
    let pos = Array.init ngroups Fun.id in
    let which = Array.init ngroups Fun.id in
    let move_down p =
      let a = p * w in
      for k = 0 to w - 1 do
        for l = a + w + k downto a + k + 1 do
          swap_adjacent_in m s (l - 1);
          decr budget_left
        done
      done;
      let g1 = which.(p) and g2 = which.(p + 1) in
      which.(p) <- g2;
      which.(p + 1) <- g1;
      pos.(g2) <- p;
      pos.(g1) <- p + 1
    in
    let move_up p = move_down (p - 1) in
    Array.iter
      (fun (_, g) ->
        if not !capped then begin
          let need = 3 * (ngroups - 1) * w * w in
          if !budget_left < need then capped := true
          else begin
            let p0 = pos.(g) in
            let start = s.live in
            let limit =
              int_of_float (Float.of_int start *. max_growth) + 1
            in
            let best = ref s.live and best_p = ref p0 in
            let record () =
              if s.live < !best then begin
                best := s.live;
                best_p := pos.(g)
              end
            in
            let walk_down () =
              while pos.(g) < ngroups - 1 && s.live <= limit do
                move_down pos.(g);
                record ()
              done
            and walk_up () =
              while pos.(g) > 0 && s.live <= limit do
                move_up pos.(g);
                record ()
              done
            in
            if ngroups - 1 - p0 <= p0 then begin
              walk_down ();
              walk_up ()
            end
            else begin
              walk_up ();
              walk_down ()
            end;
            while pos.(g) < !best_p do
              move_down pos.(g)
            done;
            while pos.(g) > !best_p do
              move_up pos.(g)
            done
          end
        end)
      by_size
  end;
  if s.live <> m.unique.Unique.count then
    failwith "Add.sift: internal accounting mismatch";
  invalidate_after_reorder m;
  { swaps = s.swaps; size_before = size0; size_after = s.live;
    capped = !capped }

(* Bring the live diagrams to [target] (level-to-variable for the first
   [length target] levels) by adjacent swaps: for each level top-down,
   bubble the wanted variable up to it.  Function-preserving, so unlike
   {!set_order} it applies to a manager full of live nodes. *)
let reorder_to m target =
  let n = Array.length target in
  let seen = Array.make (max 1 n) false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Add.reorder_to: not a permutation of 0..n-1";
      seen.(v) <- true)
    target;
  sweep m;
  ensure_order m (max n (level_span m));
  let roots = root_list m in
  let s = session_of m roots (Array.length m.invperm) in
  let size0 = s.live in
  for lvl = 0 to n - 1 do
    let cur = m.perm.(target.(lvl)) in
    for l = cur downto lvl + 1 do
      swap_adjacent_in m s (l - 1)
    done
  done;
  if s.live <> m.unique.Unique.count then
    failwith "Add.reorder_to: internal accounting mismatch";
  invalidate_after_reorder m;
  { swaps = s.swaps; size_before = size0; size_after = s.live;
    capped = false }

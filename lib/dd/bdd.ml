type t =
  | False
  | True
  | Node of { id : int; var : int; low : t; high : t }

(* Operation tags for the shared computed table; must stay < 16 so the
   packed (op, id, id) key fits a non-negative OCaml int. *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_not = 3
let op_exists = 4

(* Cache geometry: fixed-size, direct-mapped, lossy (CUDD-style).  A
   conflicting entry is overwritten; a lost entry only costs recomputation,
   never correctness. *)
let cache_bits = 16
let ite_bits = 14
let shift_bits = 13

type manager = {
  mutable next_id : int;
  unique : t Unique.t;
  (* Variable order: [perm] maps a variable to its level (depth from the
     root), the identity beyond its length, so the empty array of a fresh
     manager means the natural order and costs one bounds check on the hot
     paths. *)
  mutable perm : int array;
  (* Computed tables. *)
  cache : t Ct.cache;      (* and/or/xor/not/exists, packed (op, a, b) *)
  ite_cache : t Ct.cache2; (* (f, g) packed + h *)
  shift_cache : t Ct.cache2; (* (node id, offset) *)
  perf : Perf.t;
  (* counters pre-fetched at creation so the operation loops never hash a
     name on the hot path *)
  c_not : Perf.counter;
  c_and : Perf.counter;
  c_or : Perf.counter;
  c_xor : Perf.counter;
  c_ite : Perf.counter;
  c_exists : Perf.counter;
  c_shift : Perf.counter;
}

let manager () =
  let perf = Perf.create () in
  {
    next_id = 2;
    unique = Unique.create False;
    perm = [||];
    cache = Ct.cache ~bits:cache_bits ~dummy:False;
    ite_cache = Ct.cache2 ~bits:ite_bits ~dummy:False;
    shift_cache = Ct.cache2 ~bits:shift_bits ~dummy:False;
    perf;
    c_not = Perf.counter perf "not";
    c_and = Perf.counter perf "and";
    c_or = Perf.counter perf "or";
    c_xor = Perf.counter perf "xor";
    c_ite = Perf.counter perf "ite";
    c_exists = Perf.counter perf "exists";
    c_shift = Perf.counter perf "shift";
  }

let clear_caches m =
  Ct.clear m.cache;
  Ct.clear2 m.ite_cache;
  Ct.clear2 m.shift_cache;
  Perf.reset m.perf

let node_count m = m.next_id - 2

let perf m = m.perf

let unique_size m = m.unique.Unique.count

let node_id = function False -> 0 | True -> 1 | Node n -> n.id

let level m v = if v < Array.length m.perm then m.perm.(v) else v

let set_order m ord =
  if m.unique.Unique.count > 0 then
    invalid_arg "Bdd.set_order: manager already contains nodes";
  let n = Array.length ord in
  let perm = Array.make n (-1) in
  Array.iteri
    (fun lvl v ->
      if v < 0 || v >= n || perm.(v) >= 0 then
        invalid_arg "Bdd.set_order: not a permutation of 0..n-1";
      perm.(v) <- lvl)
    ord;
  m.perm <- perm

let zero = False
let one = True

let of_bool b = if b then True else False

(* Hash-consing constructor: enforces reduction (low != high) and sharing. *)
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
      Perf.note_peak m.perf (m.next_id - 2);
      Unique.fill u i v il ih n;
      n
    end
  end

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative variable";
  Ct.check_var i;
  mk m i False True

let nvar m i =
  if i < 0 then invalid_arg "Bdd.nvar: negative variable";
  Ct.check_var i;
  mk m i True False

let top_var m a b =
  match a, b with
  | Node na, Node nb ->
    if level m na.var <= level m nb.var then na.var else nb.var
  | Node na, (False | True) -> na.var
  | (False | True), Node nb -> nb.var
  | (False | True), (False | True) -> invalid_arg "Bdd.top_var: two terminals"

let cofactors f v =
  match f with
  | Node n when n.var = v -> (n.low, n.high)
  | False | True | Node _ -> (f, f)

let bnot m f =
  let cache = m.cache in
  let rec go f =
    match f with
    | False -> True
    | True -> False
    | Node n ->
      let key = Ct.pack op_not n.id 0 in
      let i = Ct.slot cache key in
      if cache.Ct.keys.(i) = key then begin
        Perf.hit m.c_not;
        cache.Ct.vals.(i)
      end
      else begin
        Perf.miss m.c_not;
        let r = mk m n.var (go n.low) (go n.high) in
        cache.Ct.keys.(i) <- key;
        cache.Ct.vals.(i) <- r;
        r
      end
  in
  go f

(* Symmetric binary operations share this skeleton; [terminal] decides the
   base cases, the shared computed table memoizes on the (commutatively
   normalized) packed key and [ctr] counts its hits/misses. *)
let apply_comm m op ctr terminal a b =
  let cache = m.cache in
  let rec go a b =
    match terminal a b with
    | Some r -> r
    | None ->
      let ia = node_id a and ib = node_id b in
      let key = if ia <= ib then Ct.pack op ia ib else Ct.pack op ib ia in
      let i = Ct.slot cache key in
      if cache.Ct.keys.(i) = key then begin
        Perf.hit ctr;
        cache.Ct.vals.(i)
      end
      else begin
        Perf.miss ctr;
        let v = top_var m a b in
        let a0, a1 = cofactors a v and b0, b1 = cofactors b v in
        let r = mk m v (go a0 b0) (go a1 b1) in
        cache.Ct.keys.(i) <- key;
        cache.Ct.vals.(i) <- r;
        r
      end
  in
  go a b

let and_terminal a b =
  match a, b with
  | False, _ | _, False -> Some False
  | True, x | x, True -> Some x
  | Node na, Node nb -> if na.id = nb.id then Some a else None

let or_terminal a b =
  match a, b with
  | True, _ | _, True -> Some True
  | False, x | x, False -> Some x
  | Node na, Node nb -> if na.id = nb.id then Some a else None

let band m a b = apply_comm m op_and m.c_and and_terminal a b
let bor m a b = apply_comm m op_or m.c_or or_terminal a b

let bxor m a b =
  let terminal a b =
    match a, b with
    | False, x | x, False -> Some x
    | True, x | x, True ->
      (* xor with true is negation; recurse through bnot (cached). *)
      Some (bnot m x)
    | Node na, Node nb -> if na.id = nb.id then Some False else None
  in
  apply_comm m op_xor m.c_xor terminal a b

let bnand m a b = bnot m (band m a b)
let bnor m a b = bnot m (bor m a b)
let bxnor m a b = bnot m (bxor m a b)
let bimply m a b = bor m (bnot m a) b

let ite m f g h =
  let cache = m.ite_cache in
  let rec go f g h =
    match f with
    | True -> g
    | False -> h
    | Node nf ->
      if g == h then g
      else if g == True && h == False then f
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
          let f0, f1 = cofactors f v in
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
  go f g h

let band_list m fs = List.fold_left (band m) one fs
let bor_list m fs = List.fold_left (bor m) zero fs

let restrict m f ~var ~value =
  let memo = Hashtbl.create 64 in
  let lvl = level m var in
  let rec go f =
    match f with
    | False | True -> f
    | Node n when level m n.var > lvl -> f
    | Node n when n.var = var -> if value then n.high else n.low
    | Node n -> (
      match Hashtbl.find_opt memo n.id with
      | Some r -> r
      | None ->
        let r = mk m n.var (go n.low) (go n.high) in
        Hashtbl.add memo n.id r;
        r)
  in
  go f

let exists m vars f =
  let vars = List.sort_uniq compare vars in
  let cache = m.cache in
  (* memoized on (variable, node), so the cache survives across the
     quantified variables of one call and across calls *)
  let quantify_one v f =
    let lvl = level m v in
    let rec go f =
      match f with
      | False | True -> f
      | Node n when level m n.var > lvl -> f
      | Node n when n.var = v -> bor m n.low n.high
      | Node n ->
        let key = Ct.pack op_exists v n.id in
        let i = Ct.slot cache key in
        if cache.Ct.keys.(i) = key then begin
          Perf.hit m.c_exists;
          cache.Ct.vals.(i)
        end
        else begin
          Perf.miss m.c_exists;
          let r = mk m n.var (go n.low) (go n.high) in
          cache.Ct.keys.(i) <- key;
          cache.Ct.vals.(i) <- r;
          r
        end
    in
    go f
  in
  List.fold_left (fun acc v -> quantify_one v acc) f vars

let forall m vars f = bnot m (exists m vars (bnot m f))

let shift m k f =
  if k = 0 then f
  else begin
    let cache = m.shift_cache in
    let rec go f =
      match f with
      | False | True -> f
      | Node n ->
        let k1 = n.id and k2 = k in
        let i = Ct.slot2 cache k1 k2 in
        if cache.Ct.k1.(i) = k1 && cache.Ct.k2.(i) = k2 then begin
          Perf.hit m.c_shift;
          cache.Ct.vals2.(i)
        end
        else begin
          Perf.miss m.c_shift;
          let v = n.var + k in
          if v < 0 then invalid_arg "Bdd.shift: negative shifted variable";
          Ct.check_var v;
          let r = mk m v (go n.low) (go n.high) in
          cache.Ct.k1.(i) <- k1;
          cache.Ct.k2.(i) <- k2;
          cache.Ct.vals2.(i) <- r;
          r
        end
    in
    go f
  end

let equal a b = a == b
let is_true f = f == True
let is_false f = f == False

let rec eval f env =
  match f with
  | False -> false
  | True -> true
  | Node n ->
    if n.var >= Array.length env then
      invalid_arg "Bdd.eval: environment too short";
    if env.(n.var) then eval n.high env else eval n.low env

let size f =
  let seen = Hashtbl.create 64 in
  let rec go f =
    let id = node_id f in
    if Hashtbl.mem seen id then ()
    else begin
      Hashtbl.add seen id ();
      match f with
      | False | True -> ()
      | Node n ->
        go n.low;
        go n.high
    end
  in
  go f;
  Hashtbl.length seen

let support f =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go f =
    match f with
    | False | True -> ()
    | Node n ->
      if not (Hashtbl.mem seen n.id) then begin
        Hashtbl.add seen n.id ();
        Hashtbl.replace vars n.var ();
        go n.low;
        go n.high
      end
  in
  go f;
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort compare

let sat_fraction f =
  let memo = Hashtbl.create 64 in
  let rec go f =
    match f with
    | False -> 0.0
    | True -> 1.0
    | Node n -> (
      match Hashtbl.find_opt memo n.id with
      | Some r -> r
      | None ->
        let r = 0.5 *. (go n.low +. go n.high) in
        Hashtbl.add memo n.id r;
        r)
  in
  go f

let any_sat f =
  let rec go f acc =
    match f with
    | False -> None
    | True -> Some (List.rev acc)
    | Node n -> (
      match go n.high ((n.var, true) :: acc) with
      | Some r -> Some r
      | None -> go n.low ((n.var, false) :: acc))
  in
  go f []

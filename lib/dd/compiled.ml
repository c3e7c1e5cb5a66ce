(* Flat array-coded ADD programs for bulk evaluation.

   Two coordinated encodings are built per program:

   - A triple program: one packed int array [code] holds a (var, lo, hi)
     triple per decision node at stride 3, renumbered depth-first
     (preorder) from the root so that a low-chain walk touches
     consecutive triples; [leaves] holds the distinct terminal values in
     first-encounter order.  A child reference >= 0 is the triple
     *offset* (3 * node index, so the walk never multiplies), < 0 is
     [lnot leaf_index] — the same branch-light packed-int discipline as
     Ct's computed tables.  This is the form {!eval} walks per query.

   - A levelized step table for the batch path.  The triple program is
     normalized ({!levelize}, straight from the triples) into the fixed
     [plan] of passes, each
     consuming [radix] (= 4) consecutive variables (a short trailing
     pass covers the remainder), inserting pass-through states where
     the diagram skips variables.  Each state of level l is 2^arity
     consecutive [steps] entries indexed by the tested input bytes; an
     entry holds the absolute offset of the successor state, and
     last-level entries hold leaf indices.  The batch walk is then
     [nlevels] identical passes of [s <- steps.(s + idx)] with [idx]
     built from four input bytes — no variable loads, no comparisons,
     no data-dependent branches (random inputs make the per-step branch
     of a scalar walk a coin toss, so its mispredicts dominate), and the
     iterations of a pass are independent, so their load chains overlap.
     States are triple references, so a level holds at most [size]
     states; levels are laid out contiguously, so a pass touches one
     small slice of the table.

   A constant diagram yields an empty [code] and a root that is already
   a leaf reference; the walk loops guard on [root >= 0], so the empty
   array is never indexed.  (Encoding the root as a plain triple offset
   instead would read code.(0) out of bounds on exactly that program —
   see the leaf-only regression test in test_compiled.ml.)

   Batches are sharded in fixed-size blocks over the Parallel.Pool.  The
   split is a function of n alone and per-block partials are combined in
   block index order, so both the output array and the stats fold are
   byte-identical whatever CFPM_JOBS says.  Programs are immutable after
   compile, so sharing one across worker domains is safe. *)

type t = {
  nvars : int;
  code : int array; (* (var, lo, hi) per node, stride 3 *)
  leaves : float array;
  root : int; (* encoded like a child: >= 0 triple offset, < 0 leaf *)
  steps : int array; (* levelized transitions, stride 2^arity per level *)
  plan : (int * int) array; (* batch passes: (arity, offset in plan_vars) *)
  plan_vars : int array; (* variables in level order, concatenated passes *)
}

let m_programs = Obs.Metrics.metric "compiled.programs"

(* vectors evaluated through compiled programs: every batch adds its n,
   which is attributable to the workload, so the total is deterministic
   across job counts *)
let m_evals = Obs.Metrics.metric "compiled.evals"

let block = 4096
let node_count t = Array.length t.code / 3

(* variables consumed per batch pass: wide levels amortize the per-pass
   bookkeeping (one table lookup covers [radix] variables), at the price
   of 2^radix entries per state *)
let radix = 4

let plan_of nvars =
  let rec go v acc =
    if v >= nvars then Array.of_list (List.rev acc)
    else
      let a = min radix (nvars - v) in
      go (v + a) ((a, v) :: acc)
  in
  go 0 []

(* Normalize the triple program into the level-major step table.  States
   are child references (triple offset or [lnot leaf]).  Level [l]'s
   states are the distinct references reachable after consuming the
   variables of earlier passes (in the order listed by [plan_vars]), in
   first-encounter order (deterministic), interned per level through
   [stamp]/[slot] (indexed by triple number, or [n + leaf]).  Levels are
   laid out back to back, so the next level's base offset is known while
   a level is filled: an entry is the absolute offset of its successor
   state, and after the last pass the leaf index. *)
let levelize ~plan ~plan_vars code n_leaves root =
  let n = Array.length code / 3 in
  let nlevels = Array.length plan in
  let key r = if r >= 0 then r / 3 else n + lnot r in
  let stamp = Array.make (n + n_leaves) (-1) in
  let slot = Array.make (n + n_leaves) 0 in
  let next = Array.make (n + n_leaves) 0 in
  let states = ref [| root |] in
  let base = ref 0 in
  let levels = ref [] in
  for l = 0 to nlevels - 1 do
    let arity, v0 = plan.(l) in
    let stride = 1 lsl arity in
    let cur = !states in
    let next_base = !base + (Array.length cur * stride) in
    let n_next = ref 0 in
    let entry r =
      if l + 1 < nlevels then begin
        let k = key r in
        if stamp.(k) <> l then begin
          stamp.(k) <- l;
          slot.(k) <- !n_next;
          next.(!n_next) <- r;
          incr n_next
        end;
        next_base + (slot.(k) lsl fst plan.(l + 1))
      end
      else if r < 0 then lnot r
      else
        (* a decision node after the last pass: [plan_vars] does not list
           the program's variables in its level order (e.g. a stale order
           after a reorder), which would silently miscompile *)
        invalid_arg
          "Compiled: order inconsistent with the diagram's level order"
    in
    let ent = Array.make (Array.length cur * stride) 0 in
    Array.iteri
      (fun si r ->
        for idx = 0 to stride - 1 do
          (* bit (arity - 1 - k) of idx is the value of the pass's k-th
             variable, matching the walk's running [(idx lsl 1) lor b];
             ordered programs test variables in level order, so a
             reference waiting on a deeper level (or a leaf) stays put *)
          let c = ref r in
          for k = 0 to arity - 1 do
            if !c >= 0 && code.(!c) = plan_vars.(v0 + k) then
              c := code.(!c + 1 + ((idx lsr (arity - 1 - k)) land 1))
          done;
          ent.((si * stride) + idx) <- entry !c
        done)
      cur;
    levels := ent :: !levels;
    base := next_base;
    states := Array.sub next 0 !n_next
  done;
  Array.concat (List.rev !levels)

type repr = {
  r_vars : int;
  r_order : int array;
  r_code : int array;
  r_leaves : float array;
  r_root : int;
}

(* variables in level order; identity unless the diagram was built (or
   reordered) under a custom order *)
let checked_order nvars = function
  | None -> Array.init nvars Fun.id
  | Some ord ->
    if Array.length ord <> nvars then
      invalid_arg "Compiled: order length must equal vars";
    let seen = Array.make (max 1 nvars) false in
    Array.iter
      (fun v ->
        if v < 0 || v >= nvars || seen.(v) then
          invalid_arg "Compiled: order is not a permutation";
        seen.(v) <- true)
      ord;
    Array.copy ord

(* The memo of [triples] maps node ids (>= 0) to encoded references by
   open addressing: [-1] marks a free slot, and the table is kept at most
   half full.  No boxing and no polymorphic hash: this lookup is most of
   the cost of numbering a large diagram. *)
let rec probe keys id i =
  let k = keys.(i) in
  if k = id || k < 0 then i
  else probe keys id ((i + 1) land (Array.length keys - 1))

let slot_of keys id = probe keys id (Ct.mix id land (Array.length keys - 1))

(* One traversal numbers the reachable DAG into growable buffers, then
   trims them.  Parents are numbered before their children (preorder),
   which is what puts a low spine on consecutive triples.  A [size] hint
   sizes both buffers once, so nothing grows. *)
let triples ?order ?vars ?(size = 0) root_node =
  let code = ref (Array.make (max 768 (3 * size)) 0) in
  let leaves = ref [] in
  let slots = ref 1024 in
  while !slots < 2 * size do slots := 2 * !slots done;
  let keys = ref (Array.make !slots (-1)) and refs = ref (Array.make !slots 0) in
  let next_node = ref 0 in
  let next_leaf = ref 0 in
  let max_var = ref (-1) in
  (* called after the entry is counted in [next_node + next_leaf] *)
  let rec remember id r =
    if 2 * (!next_node + !next_leaf) > Array.length !keys then begin
      let ks = !keys and rs = !refs in
      keys := Array.make (2 * Array.length ks) (-1);
      refs := Array.make (2 * Array.length ks) 0;
      Array.iteri (fun i k -> if k >= 0 then remember k rs.(i)) ks
    end;
    let i = slot_of !keys id in
    !keys.(i) <- id;
    !refs.(i) <- r
  in
  let rec go t =
    let id = Add.node_id t in
    let i = slot_of !keys id in
    if !keys.(i) = id then !refs.(i)
    else
      match t with
      | Add.Leaf l ->
        let enc = lnot !next_leaf in
        incr next_leaf;
        leaves := l.value :: !leaves;
        remember id enc;
        enc
      | Add.Node n ->
        let slot = 3 * !next_node in
        incr next_node;
        if slot + 3 > Array.length !code then begin
          let grown = Array.make (2 * (slot + 3)) 0 in
          Array.blit !code 0 grown 0 slot;
          code := grown
        end;
        remember id slot;
        max_var := max !max_var n.var;
        let lo = go n.low in
        let hi = go n.high in
        let c = !code in
        c.(slot) <- n.var;
        c.(slot + 1) <- lo;
        c.(slot + 2) <- hi;
        slot
  in
  let root = go root_node in
  let nvars =
    match vars with
    | None -> !max_var + 1
    | Some v ->
      if v <= !max_var then
        invalid_arg "Compiled.compile: vars smaller than the diagram support";
      v
  in
  {
    r_vars = nvars;
    r_order = checked_order nvars order;
    r_code = Array.sub !code 0 (3 * !next_node);
    r_leaves = Array.of_list (List.rev !leaves);
    r_root = root;
  }

let program_span f =
  Obs.Trace.with_span "compile" ~cat:"compiled"
    ~result_args:(fun t ->
      [
        ("nodes", Json.Int (node_count t));
        ("leaves", Json.Int (Array.length t.leaves));
        ("steps", Json.Int (Array.length t.steps));
      ])
    f

(* The program shares [r]'s arrays; [plan_vars] is [r_order]. *)
let of_checked_repr r =
  let plan = plan_of r.r_vars in
  let steps =
    if r.r_root < 0 then [||]
    else
      levelize ~plan ~plan_vars:r.r_order r.r_code (Array.length r.r_leaves)
        r.r_root
  in
  Obs.Metrics.incr m_programs;
  {
    nvars = r.r_vars;
    code = r.r_code;
    leaves = r.r_leaves;
    root = r.r_root;
    steps;
    plan;
    plan_vars = r.r_order;
  }

let compile ?order ?vars ?size root_node =
  program_span @@ fun () -> of_checked_repr (triples ?order ?vars ?size root_node)

let of_repr r =
  program_span @@ fun () ->
  of_checked_repr { r with r_order = checked_order r.r_vars (Some r.r_order) }

let to_repr t =
  {
    r_vars = t.nvars;
    r_order = t.plan_vars;
    r_code = t.code;
    r_leaves = t.leaves;
    r_root = t.root;
  }

let vars t = t.nvars
let leaf_count t = Array.length t.leaves
let is_constant t = t.root < 0

let eval t env =
  if Array.length env < t.nvars then
    invalid_arg "Compiled.eval: environment too short";
  let code = t.code in
  let i = ref t.root in
  while !i >= 0 do
    let j = !i in
    i :=
      if Array.unsafe_get env (Array.unsafe_get code j) then
        Array.unsafe_get code (j + 2)
      else Array.unsafe_get code (j + 1)
  done;
  Array.unsafe_get t.leaves (lnot !i)

let pack t envs =
  let nvars = t.nvars in
  let b = Bytes.create (Array.length envs * nvars) in
  Array.iteri
    (fun k env ->
      if Array.length env < nvars then
        invalid_arg "Compiled.pack: environment too short";
      let base = k * nvars in
      for v = 0 to nvars - 1 do
        Bytes.unsafe_set b (base + v)
          (if Array.unsafe_get env v then '\001' else '\000')
      done)
    envs;
  b

(* All unsafe accesses below are covered by [check_batch]: a pass reads
   the input bytes of its [plan_vars] slice, every entry of which is
   < nvars (validated at compile), and the buffer holds n * nvars bytes,
   so every read stays in range; [steps] offsets and leaf indices are in
   range by construction of [levelize]. *)
let check_batch t ~inputs ~n =
  if n < 0 then invalid_arg "Compiled: negative batch size";
  if Bytes.length inputs < n * t.nvars then
    invalid_arg "Compiled: input buffer shorter than n * vars bytes"

(* A pass re-reads input bytes of every transition, striding by nvars;
   tiles keep that working set (tile * nvars input bytes, plus the
   tile's states) inside L1 across all passes, where a whole-block pass
   would stream it from L2 on every level.  The state scratch is
   tile-sized and reused across tiles: a block-sized state array would
   be a fresh major-heap allocation per block, and in a process with a
   large live heap every major allocation buys a proportional slice of
   GC marking — measured as 2x on the batch walk inside the bench
   harness.  2 KiB lands in the minor heap and stays hot in L1. *)
let tile = 256

(* Fill [scratch.(0 .. width-1)] with the final leaf indices of
   transitions [abs0 .. abs0 + width - 1], one level per pass. *)
let walk_tile t inputs scratch ~abs0 ~width =
  (* every position starts at the root state, offset 0 *)
  Array.fill scratch 0 width 0;
  let steps = t.steps
  and nvars = t.nvars
  and plan = t.plan
  and plan_vars = t.plan_vars in
  for l = 0 to Array.length plan - 1 do
    let arity, v0 = Array.unsafe_get plan l in
    let off = abs0 * nvars in
    (* the pass's variable indices are loop-invariant: hoist them out of
       the hot loop (plan_vars entries are < nvars by construction, so
       [base + pv] stays inside the checked buffer).  Per-element
       addressing: a running offset in a [ref] would carry the loop
       dependency through memory (store-to-load per iteration); the
       multiply stays off the critical path *)
    match arity with
    | 4 ->
      let pv0 = Array.unsafe_get plan_vars v0 in
      let pv1 = Array.unsafe_get plan_vars (v0 + 1) in
      let pv2 = Array.unsafe_get plan_vars (v0 + 2) in
      let pv3 = Array.unsafe_get plan_vars (v0 + 3) in
      for q = 0 to width - 1 do
        let s = Array.unsafe_get scratch q in
        let base = (q * nvars) + off in
        let b0 = Char.code (Bytes.unsafe_get inputs (base + pv0)) in
        let b1 = Char.code (Bytes.unsafe_get inputs (base + pv1)) in
        let b2 = Char.code (Bytes.unsafe_get inputs (base + pv2)) in
        let b3 = Char.code (Bytes.unsafe_get inputs (base + pv3)) in
        let idx = (b0 lsl 3) lor (b1 lsl 2) lor (b2 lsl 1) lor b3 in
        Array.unsafe_set scratch q (Array.unsafe_get steps (s + idx))
      done
    | 2 ->
      let pv0 = Array.unsafe_get plan_vars v0 in
      let pv1 = Array.unsafe_get plan_vars (v0 + 1) in
      for q = 0 to width - 1 do
        let s = Array.unsafe_get scratch q in
        let base = (q * nvars) + off in
        let b0 = Char.code (Bytes.unsafe_get inputs (base + pv0)) in
        let b1 = Char.code (Bytes.unsafe_get inputs (base + pv1)) in
        Array.unsafe_set scratch q
          (Array.unsafe_get steps (s + (b0 lsl 1) + b1))
      done
    | _ ->
      for q = 0 to width - 1 do
        let s = Array.unsafe_get scratch q in
        let base = (q * nvars) + off in
        let idx = ref 0 in
        for k = 0 to arity - 1 do
          idx :=
            (!idx lsl 1)
            lor Char.code
                  (Bytes.unsafe_get inputs
                     (base + Array.unsafe_get plan_vars (v0 + k)))
        done;
        Array.unsafe_set scratch q (Array.unsafe_get steps (s + !idx))
      done
  done

let eval_block t inputs ~first ~count out =
  if t.root < 0 then
    Array.fill out first count (t.leaves.(lnot t.root))
  else begin
    let scratch = Array.make tile 0 in
    let leaves = t.leaves in
    let t0 = ref 0 in
    while !t0 < count do
      let width = min tile (count - !t0) in
      walk_tile t inputs scratch ~abs0:(first + !t0) ~width;
      for q = 0 to width - 1 do
        Array.unsafe_set out (first + !t0 + q)
          (Array.unsafe_get leaves (Array.unsafe_get scratch q))
      done;
      t0 := !t0 + width
    done
  end

type stats = { count : int; total : float; minimum : float; maximum : float }

let empty_stats =
  { count = 0; total = 0.0; minimum = infinity; maximum = neg_infinity }

let stats_block t inputs ~first ~count =
  (* accumulate in transition order, independent of block scheduling *)
  let total = ref 0.0 and mn = ref infinity and mx = ref neg_infinity in
  (if t.root < 0 then begin
     let v = t.leaves.(lnot t.root) in
     (* summed one by one, so the total is bit-identical to a fold over
        [eval_batch]'s outputs *)
     for _ = 1 to count do
       total := !total +. v;
       if v < !mn then mn := v;
       if v > !mx then mx := v
     done
   end
   else begin
     let scratch = Array.make tile 0 in
     let leaves = t.leaves in
     let t0 = ref 0 in
     while !t0 < count do
       let width = min tile (count - !t0) in
       walk_tile t inputs scratch ~abs0:(first + !t0) ~width;
       for q = 0 to width - 1 do
         let v = Array.unsafe_get leaves (Array.unsafe_get scratch q) in
         total := !total +. v;
         if v < !mn then mn := v;
         if v > !mx then mx := v
       done;
       t0 := !t0 + width
     done
   end);
  { count; total = !total; minimum = !mn; maximum = !mx }

(* Block boundaries depend only on n; a single block runs inline without
   touching the pool at all (the common case for experiment-sized runs). *)
let shard ?jobs n ~inline ~task =
  let nblocks = (n + block - 1) / block in
  if nblocks <= 1 then [ inline () ]
  else
    Parallel.Pool.run ?jobs
      (List.init nblocks (fun b ->
           let first = b * block in
           task ~first ~count:(min block (n - first))))

let eval_batch ?jobs t ~inputs ~n =
  check_batch t ~inputs ~n;
  Obs.Trace.with_span "eval_batch" ~cat:"compiled"
    ~args:(fun () -> [ ("n", Json.Int n) ])
  @@ fun () ->
  Obs.Metrics.add m_evals n;
  (* uninitialized is fine: the blocks below cover every slot *)
  let out = Array.create_float n in
  (* workers write disjoint 64-bit slots of [out]; the pool join publishes
     them to the caller *)
  ignore
    (shard ?jobs n
       ~inline:(fun () -> eval_block t inputs ~first:0 ~count:n out)
       ~task:(fun ~first ~count () -> eval_block t inputs ~first ~count out)
      : unit list);
  out

let stats_batch ?jobs t ~inputs ~n =
  check_batch t ~inputs ~n;
  Obs.Trace.with_span "eval_batch" ~cat:"compiled"
    ~args:(fun () -> [ ("n", Json.Int n); ("fold", Json.Bool true) ])
  @@ fun () ->
  Obs.Metrics.add m_evals n;
  let parts =
    shard ?jobs n
      ~inline:(fun () -> stats_block t inputs ~first:0 ~count:n)
      ~task:(fun ~first ~count () -> stats_block t inputs ~first ~count)
  in
  List.fold_left
    (fun acc p ->
      {
        count = acc.count + p.count;
        total = acc.total +. p.total;
        minimum = Float.min acc.minimum p.minimum;
        maximum = Float.max acc.maximum p.maximum;
      })
    empty_stats parts

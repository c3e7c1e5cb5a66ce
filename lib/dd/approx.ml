type strategy = Average | Upper_bound | Lower_bound

type weighting =
  | Unweighted
  | Uniform_mass
  | Robust of Markov.statistics list

let default_weighting = Robust Markov.default_anchors

let strategy_name = function
  | Average -> "average"
  | Upper_bound -> "upper-bound"
  | Lower_bound -> "lower-bound"

(* ------------------------------------------------------------------ *)
(* A collapse plan works on a flat numbering of the diagram.  One DFS
   numbers the nodes in postorder, low child before high, so children
   precede parents and the root is last; [count - 1 - i] is the
   parents-first (reverse postorder) index, which breaks score ties in the
   ranking.  Every per-node quantity (Eq. 7 statistics, Markov masses and
   moments, scores) lives in flat arrays under that number. *)

type plan = {
  nodes : Add.t array; (* postorder; the root is last *)
  var : int array; (* -1 at leaves *)
  low : int array;
  high : int array;
  values : float array; (* leaf value, or replacement constant *)
  ranked : int array; (* internal nodes, cheapest collapse first *)
  rank : int array; (* position in [ranked] *)
  value_id : int array; (* [values] interned *)
  seen : int array; (* visit stamps of probes and rebuilds *)
  value_seen : int array;
  mutable stamp : int;
}

let number mgr count root =
  let nodes = Array.make count root and var = Array.make count (-1) in
  let low = Array.make count (-1) and high = Array.make count (-1) in
  let values = Array.make count 0.0 in
  let record i t l h =
    nodes.(i) <- t;
    match t with
    | Add.Leaf x -> values.(i) <- x.value
    | Add.Node n ->
      var.(i) <- n.var;
      low.(i) <- l;
      high.(i) <- h
  in
  let numbered = Add.postorder mgr root ~f:record in
  assert (numbered = count);
  (nodes, var, low, high, values)

(* Intern [values] into dense ids under [Hashtbl]'s key equality
   ([compare = 0]: 0.0 and -0.0 are one key, and so are all NaNs; the
   hash normalizes both), so a probe counts distinct leaf constants
   exactly as a table of values would.  Open addressing over unboxed
   keys: a [Hashtbl] here made the collapse about a fifth slower. *)
let intern values =
  let cap = ref 16 in
  while !cap < 2 * Array.length values do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let keys = Array.make !cap 0.0 and ids = Array.make !cap (-1) in
  let next = ref 0 in
  let rec find v s =
    let k = ids.(s) in
    if k < 0 then begin
      keys.(s) <- v;
      ids.(s) <- !next;
      incr next;
      !next - 1
    end
    else if Float.compare keys.(s) v = 0 then k
    else find v ((s + 1) land mask)
  in
  let value_id = Array.map (fun v -> find v (Hashtbl.hash v land mask)) values in
  (value_id, !next)

(* Exponent balancing absolute against relative damage across anchors:
   0 optimizes absolute error (favours high-activity statistics), 2 pure
   relative error (favours low-activity ones); 0.5 is a good compromise
   for the ARE metric used in the paper's evaluation. *)
let norm_exponent = 0.5

(* The Markov measure of {!Markov} on the numbering, one anchor at a
   time, at 3i + context.  [ls] and [hs] hold each node's child slots:
   3 * child + the context the edge enters it in.  Variables 0 and 1
   stand for every initial and final copy: a branch weight depends on
   nothing else. *)
let branch_weights a = (Markov.p_high a 0 0, Array.init 3 (Markov.p_high a 1))

(* reach probabilities, top-down (descending numbers) *)
let masses ~var ~ls ~hs a mass =
  let p_initial, p_final = branch_weights a in
  let count = Array.length var in
  Array.fill mass 0 (3 * count) 0.0;
  mass.(3 * (count - 1)) <- 1.0;
  for i = count - 1 downto 0 do
    let v = var.(i) in
    (* only a final copy is entered in contexts 1 and 2 *)
    if v >= 0 then
      for ctx = 0 to (if v land 1 = 0 then 0 else 2) do
        let m = mass.((3 * i) + ctx) in
        if m > 0.0 then begin
          let p = if v land 1 = 0 then p_initial else p_final.(ctx) in
          mass.(ls.(i)) <- mass.(ls.(i)) +. ((1.0 -. p) *. m);
          mass.(hs.(i)) <- mass.(hs.(i)) +. (p *. m)
        end
      done
  done

(* Conditional moments E[f], E[f^2] bottom-up, and with them each
   internal node's context-mixed (mass, E[f | reach], E[f^2 | reach])
   into [mixed] at 3 (base + i).  Initial copies and leaves do not depend
   on the context, so one value fills their three slots. *)
let mix_anchor ~var ~ls ~hs ~values ~avg ~variance a ~mass ~m1 ~m2 mixed base =
  let p_initial, p_final = branch_weights a in
  for i = 0 to Array.length var - 1 do
    let v = var.(i) and c = 3 * i in
    if v < 0 then
      for s = c to c + 2 do
        m1.(s) <- values.(i);
        m2.(s) <- values.(i) *. values.(i)
      done
    else begin
      let l = ls.(i) and h = hs.(i) in
      if v land 1 = 0 then begin
        let p = p_initial in
        let x1 = ((1.0 -. p) *. m1.(l)) +. (p *. m1.(h)) in
        let x2 = ((1.0 -. p) *. m2.(l)) +. (p *. m2.(h)) in
        for s = c to c + 2 do
          m1.(s) <- x1;
          m2.(s) <- x2
        done
      end
      else
        for ctx = 0 to 2 do
          let p = p_final.(ctx) in
          m1.(c + ctx) <- ((1.0 -. p) *. m1.(l)) +. (p *. m1.(h));
          m2.(c + ctx) <- ((1.0 -. p) *. m2.(l)) +. (p *. m2.(h))
        done;
      let k = 3 * (base + i) in
      let t = mass.(c) +. mass.(c + 1) +. mass.(c + 2) in
      if t <= 0.0 then begin
        mixed.(k) <- 0.0;
        mixed.(k + 1) <- avg.(i);
        mixed.(k + 2) <- variance.(i) +. (avg.(i) ** 2.0)
      end
      else begin
        mixed.(k) <- t;
        mixed.(k + 1) <-
          (0.0
          +. (mass.(c) *. m1.(c))
          +. (mass.(c + 1) *. m1.(c + 1))
          +. (mass.(c + 2) *. m1.(c + 2)))
          /. t;
        mixed.(k + 2) <-
          (0.0
          +. (mass.(c) *. m2.(c))
          +. (mass.(c + 1) *. m2.(c + 1))
          +. (mass.(c + 2) *. m2.(c + 2)))
          /. t
      end
    end
  done

(* Float scratch for the Markov passes, reused from plan to plan: a
   bounded build collapses dozens of times, and fresh megabyte arrays for
   every plan cost more than the passes that fill them.  A plan takes the
   pooled buffers with an atomic exchange, so plans running at the same
   time, in other domains or threads, never share them: one that finds
   the pool empty allocates its own.  Contents are never assumed.  A
   buffer past [max_kept] floats (2 MiB) is not pooled. *)
let pool : float array array option Atomic.t = Atomic.make None

let max_kept = 1 lsl 18

let take_scratch () =
  match Atomic.exchange pool None with
  | Some s -> s
  | None -> Array.make 4 [||]

let scratch s slot n =
  if Array.length s.(slot) < n then s.(slot) <- Array.make n 0.0;
  s.(slot)

let return_scratch s =
  Array.iteri (fun i a -> if Array.length a > max_kept then s.(i) <- [||]) s;
  Atomic.set pool (Some s)

let make_plan mgr strategy weighting root =
  let count = Add.size_in mgr root in
  let nodes, var, low, high, values = number mgr count root in
  (* Eq. 7, bottom-up: uniform average, variance, minimum and maximum *)
  let avg = Array.make count 0.0 and variance = Array.make count 0.0 in
  let minv = Array.make count 0.0 and maxv = Array.make count 0.0 in
  for i = 0 to count - 1 do
    if var.(i) < 0 then begin
      avg.(i) <- values.(i);
      minv.(i) <- values.(i);
      maxv.(i) <- values.(i)
    end
    else begin
      let l = low.(i) and h = high.(i) in
      let a = 0.5 *. (avg.(l) +. avg.(h)) in
      avg.(i) <- a;
      variance.(i) <-
        0.5
        *. (variance.(l)
           +. ((avg.(l) -. a) ** 2.0)
           +. variance.(h)
           +. ((avg.(h) -. a) ** 2.0));
      minv.(i) <- Float.min minv.(l) minv.(h);
      maxv.(i) <- Float.max maxv.(l) maxv.(h)
    end
  done;
  let bound i =
    match strategy with
    | Average -> avg.(i)
    | Upper_bound -> maxv.(i)
    | Lower_bound -> minv.(i)
  in
  (* the sub-function's own damage: variance (Eq. 5-7) or Eq. 8's mse *)
  let own_score i =
    match strategy with
    | Average -> variance.(i)
    | Upper_bound -> variance.(i) +. ((maxv.(i) -. avg.(i)) ** 2.0)
    | Lower_bound -> variance.(i) +. ((minv.(i) -. avg.(i)) ** 2.0)
  in
  let child_slots child branch =
    Array.init count (fun i ->
        if var.(i) < 0 then 0
        else (3 * child.(i)) + Markov.child_ctx var var.(i) branch child.(i))
  in
  let scores = Array.make count infinity in
  (match weighting with
  | Unweighted ->
    for i = 0 to count - 1 do
      if var.(i) >= 0 then begin
        scores.(i) <- own_score i;
        values.(i) <- bound i
      end
    done
  | Uniform_mass ->
    let s = take_scratch () in
    let mass = scratch s 0 (3 * count) in
    masses ~var ~ls:(child_slots low false) ~hs:(child_slots high true)
      Markov.uniform mass;
    for i = 0 to count - 1 do
      if var.(i) >= 0 then begin
        let t = mass.(3 * i) +. mass.((3 * i) + 1) +. mass.((3 * i) + 2) in
        scores.(i) <- (if t <= 0.0 then 0.0 else t) *. own_score i;
        values.(i) <- bound i
      end
    done;
    return_scratch s
  | Robust anchors ->
    let anchors =
      Array.of_list (if anchors = [] then Markov.default_anchors else anchors)
    in
    let na = Array.length anchors in
    let ls = child_slots low false and hs = child_slots high true in
    let s = take_scratch () in
    let mass = scratch s 0 (3 * count) in
    let m1 = scratch s 1 (3 * count) and m2 = scratch s 2 (3 * count) in
    let mixed = scratch s 3 (3 * na * count) in
    (* each anchor's damage is normalized by the mean capacitance under
       that anchor raised to [norm_exponent]: the evaluation metric is
       relative error, and an absolute error of 5 fF matters more when
       the expected capacitance is 10 than when it is 70 *)
    let norms =
      Array.mapi
        (fun a stats ->
          masses ~var ~ls ~hs stats mass;
          mix_anchor ~var ~ls ~hs ~values ~avg ~variance stats ~mass ~m1 ~m2
            mixed (a * count);
          let e1 = mixed.((3 * ((a * count) + count - 1)) + 1) in
          1.0 /. Float.max 1e-12 (Float.abs e1 ** norm_exponent))
        anchors
    in
    for i = 0 to count - 1 do
      if var.(i) >= 0 then begin
        let r =
          match strategy with
          | Upper_bound -> maxv.(i)
          | Lower_bound -> minv.(i)
          | Average ->
            (* the constant minimizing the summed normalized damage *)
            let num = ref 0.0 and den = ref 0.0 in
            for a = 0 to na - 1 do
              let k = 3 * ((a * count) + i) in
              let w = norms.(a) *. mixed.(k) in
              num := !num +. (w *. mixed.(k + 1));
              den := !den +. w
            done;
            if !den <= 0.0 then avg.(i) else !num /. !den
        in
        let score = ref 0.0 in
        for a = 0 to na - 1 do
          let k = 3 * ((a * count) + i) in
          let e1 = mixed.(k + 1) and e2 = mixed.(k + 2) in
          score :=
            Float.max !score
              (norms.(a) *. mixed.(k) *. (e2 -. (2.0 *. r *. e1) +. (r *. r)))
        done;
        values.(i) <- r;
        scores.(i) <- !score
      end
    done;
    return_scratch s);
  (* internal nodes in parents-first order, stably sorted by score: ties
     stay in that order *)
  let ranked = ref [] in
  for i = 0 to count - 1 do
    if var.(i) >= 0 then ranked := i :: !ranked
  done;
  let ranked = Array.of_list !ranked in
  Array.stable_sort (fun a b -> Float.compare scores.(a) scores.(b)) ranked;
  let rank = Array.make count max_int in
  Array.iteri (fun r i -> rank.(i) <- r) ranked;
  let value_id, distinct = intern values in
  {
    nodes;
    var;
    low;
    high;
    values;
    ranked;
    rank;
    value_id;
    seen = Array.make count 0;
    value_seen = Array.make distinct 0;
    stamp = 0;
  }

let next_stamp p =
  p.stamp <- p.stamp + 1;
  p.stamp

(* Size of the collapse of the first [k] candidates, without building it:
   kept internal nodes reachable from the root avoiding collapsed ones,
   plus the distinct leaf constants of the result. *)
let probe_size p k =
  let stamp = next_stamp p in
  let size = ref 0 in
  (* depth is bounded by the variable count, so recursion is safe *)
  let rec go i =
    if p.seen.(i) <> stamp then begin
      p.seen.(i) <- stamp;
      if p.var.(i) >= 0 && p.rank.(i) >= k then begin
        incr size;
        go p.low.(i);
        go p.high.(i)
      end
      else begin
        let v = p.value_id.(i) in
        if p.value_seen.(v) <> stamp then begin
          p.value_seen.(v) <- stamp;
          incr size
        end
      end
    end
  in
  go (Array.length p.nodes - 1);
  !size

(* The high child is rebuilt before the low one: node ids, and so the
   DOT output, follow this creation order. *)
let build_collapse mgr p k =
  let stamp = next_stamp p in
  let built = Array.copy p.nodes in
  let rec go i =
    if p.seen.(i) = stamp || p.var.(i) < 0 then built.(i)
    else begin
      let r =
        if p.rank.(i) < k then Add.const mgr p.values.(i)
        else
          let h = go p.high.(i) in
          let l = go p.low.(i) in
          Add.make_node mgr p.var.(i) l h
      in
      p.seen.(i) <- stamp;
      built.(i) <- r;
      r
    end
  in
  go (Array.length p.nodes - 1)

(* Minimal-ish k with probe_size <= max_size: plain bisection over [0,
   total] (size decreases essentially monotonically in k), with a small
   relative tolerance since each probe is an O(nodes) sweep. *)
let search mgr plan max_size =
  let total = Array.length plan.ranked in
  let tolerance = max 1 (total / 256) in
  let rec bisect lo hi =
    (* invariant: probe_size hi fits, lo does not *)
    if hi - lo <= tolerance then hi
    else begin
      let mid = (lo + hi) / 2 in
      if probe_size plan mid <= max_size then bisect lo mid else bisect mid hi
    end
  in
  let k = if probe_size plan 0 <= max_size then 0 else bisect 0 total in
  let result = build_collapse mgr plan k in
  if Add.size_in mgr result <= max_size then result
  else build_collapse mgr plan total

let collapse_passes_metric = Obs.Metrics.metric "dd.collapse_passes"

let compress ?(weighting = default_weighting) ?(resift = false) mgr ~strategy
    ~max_size root =
  if max_size < 1 then invalid_arg "Approx.compress: max_size must be >= 1";
  let result =
    if Add.size_under mgr root ~limit:max_size <> None then root
    else begin
      Perf.note_collapse (Add.perf mgr);
      Obs.Metrics.incr collapse_passes_metric;
      Obs.Trace.with_span "collapse" ~cat:"dd"
        ~args:(fun () ->
          [
            ("before_nodes", Json.Int (Add.size_in mgr root));
            ("max_size", Json.Int max_size);
          ])
        ~result_args:(fun result ->
          [ ("after_nodes", Json.Int (Add.size_in mgr result)) ])
        (fun () ->
          let plan = make_plan mgr strategy weighting root in
          search mgr plan max_size)
    end
  in
  (* Optional pair-grouped sift of the collapsed result.  Add.sift sweeps
     to the protected roots, so this is only sound when the result (plus
     anything the caller protected) is the only live data — end-of-build
     use only.  In-place and function-preserving: [result] stays the same
     physical node with the same values everywhere. *)
  if resift then begin
    Add.protect mgr result;
    Fun.protect
      ~finally:(fun () -> Add.unprotect mgr result)
      (fun () -> ignore (Add.sift ~group_pairs:true mgr : Add.sift_stats))
  end;
  result

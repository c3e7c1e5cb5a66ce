(* The collapse that Dd.Approx's flat-array planner replaced, kept
   verbatim apart from its dead exports, the optional resift and the pass
   counters and span.  It is the reference the planner must reproduce bit
   for bit: same ranking, same replacement constants, same rebuilt nodes
   in the same creation order. *)

open Dd

type strategy = Approx.strategy = Average | Upper_bound | Lower_bound

type weighting = Approx.weighting =
  | Unweighted
  | Uniform_mass
  | Robust of Markov.statistics list

(* ------------------------------------------------------------------ *)
(* Dense view of a diagram: nodes in parents-first topological order,
   children resolved to indices.  All per-node quantities (statistics,
   Markov masses and moments, collapse scores) live in flat arrays, which
   is what makes repeated compression during model construction cheap. *)

type dense = {
  nodes : Add.t array;          (* parents-first; nodes.(0) is the root *)
  var : int array;              (* -1 for leaves *)
  low : int array;              (* child indices; -1 for leaves *)
  high : int array;
  leaf_value : float array;     (* meaningful when var = -1 *)
  (* uniform statistics *)
  avg : float array;
  variance : float array;
  minv : float array;
  maxv : float array;
}

let dense_of root =
  let order = Add.fold_nodes root ~init:[] ~f:(fun acc n -> n :: acc) in
  let nodes = Array.of_list order in
  let count = Array.length nodes in
  let index : (int, int) Hashtbl.t = Hashtbl.create (2 * count) in
  Array.iteri (fun i n -> Hashtbl.replace index (Add.node_id n) i) nodes;
  let var = Array.make count (-1) in
  let low = Array.make count (-1) in
  let high = Array.make count (-1) in
  let leaf_value = Array.make count 0.0 in
  Array.iteri
    (fun i node ->
      match node with
      | Add.Leaf l -> leaf_value.(i) <- l.value
      | Add.Node n ->
        var.(i) <- n.var;
        low.(i) <- Hashtbl.find index (Add.node_id n.low);
        high.(i) <- Hashtbl.find index (Add.node_id n.high))
    nodes;
  let avg = Array.make count 0.0 in
  let variance = Array.make count 0.0 in
  let minv = Array.make count 0.0 in
  let maxv = Array.make count 0.0 in
  (* children appear after parents in the order, so a reverse sweep is
     bottom-up *)
  for i = count - 1 downto 0 do
    if var.(i) < 0 then begin
      avg.(i) <- leaf_value.(i);
      minv.(i) <- leaf_value.(i);
      maxv.(i) <- leaf_value.(i)
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
  { nodes; var; low; high; leaf_value; avg; variance; minv; maxv }

(* Markov analysis on the dense view: per-node-and-context masses
   (top-down) and conditional moments (bottom-up).  Context encodes the
   pending initial-copy value threaded between a variable pair's two
   levels; see {!Markov} for the measure.  Layout: index 3i + ctx. *)
let dense_markov d (a : Markov.statistics) =
  let count = Array.length d.nodes in
  let mass = Array.make (3 * count) 0.0 in
  let m1 = Array.make (3 * count) 0.0 in
  let m2 = Array.make (3 * count) 0.0 in
  let p_toggle_from_low = Markov.p_toggle_given ~initial:false a in
  let p_toggle_from_high = Markov.p_toggle_given ~initial:true a in
  let p_high i ctx =
    let v = d.var.(i) in
    if v land 1 = 0 then a.Markov.sp
    else
      match ctx with
      | 1 -> p_toggle_from_low
      | 2 -> 1.0 -. p_toggle_from_high
      | _ -> a.Markov.sp
  in
  let child_ctx i branch child =
    if d.var.(i) land 1 = 0 && d.var.(child) = d.var.(i) + 1 then
      if branch then 2 else 1
    else 0
  in
  (* moments, bottom-up; even-variable and leaf nodes are
     context-insensitive so all three slots share one value *)
  for i = count - 1 downto 0 do
    if d.var.(i) < 0 then begin
      let v = d.leaf_value.(i) in
      for ctx = 0 to 2 do
        m1.((3 * i) + ctx) <- v;
        m2.((3 * i) + ctx) <- v *. v
      done
    end
    else begin
      let l = d.low.(i) and h = d.high.(i) in
      let lc = child_ctx i false l and hc = child_ctx i true h in
      for ctx = 0 to 2 do
        let p = p_high i ctx in
        m1.((3 * i) + ctx) <-
          ((1.0 -. p) *. m1.((3 * l) + lc)) +. (p *. m1.((3 * h) + hc));
        m2.((3 * i) + ctx) <-
          ((1.0 -. p) *. m2.((3 * l) + lc)) +. (p *. m2.((3 * h) + hc))
      done
    end
  done;
  (* masses, top-down *)
  mass.(0) <- 1.0;
  for i = 0 to count - 1 do
    if d.var.(i) >= 0 then begin
      let l = d.low.(i) and h = d.high.(i) in
      let lc = child_ctx i false l and hc = child_ctx i true h in
      for ctx = 0 to 2 do
        let m = mass.((3 * i) + ctx) in
        if m > 0.0 then begin
          let p = p_high i ctx in
          mass.((3 * l) + lc) <- mass.((3 * l) + lc) +. ((1.0 -. p) *. m);
          mass.((3 * h) + hc) <- mass.((3 * h) + hc) +. (p *. m)
        end
      done
    end
  done;
  (mass, m1, m2)

(* Context-mixed (mass, E[f | reach], E[f^2 | reach]) of node i. *)
let mixed (mass, m1, m2) i ~default1 ~default2 =
  let t = mass.(3 * i) +. mass.((3 * i) + 1) +. mass.((3 * i) + 2) in
  if t <= 0.0 then (0.0, default1, default2)
  else begin
    let acc1 = ref 0.0 and acc2 = ref 0.0 in
    for ctx = 0 to 2 do
      acc1 := !acc1 +. (mass.((3 * i) + ctx) *. m1.((3 * i) + ctx));
      acc2 := !acc2 +. (mass.((3 * i) + ctx) *. m2.((3 * i) + ctx))
    done;
    (t, !acc1 /. t, !acc2 /. t)
  end

(* A collapse plan over the dense view: priority-sorted candidate indices
   and the constant each would be replaced with. *)
type plan = {
  dense : dense;
  ranked : int array;        (* internal-node indices, cheapest first *)
  values : float array;      (* replacement constant per index *)
  scores : float array;      (* collapse priority per index *)
}

(* Exponent balancing absolute against relative damage across anchors:
   0 optimizes absolute error (favours high-activity statistics), 2 pure
   relative error (favours low-activity ones); 0.5 is a good compromise
   for the ARE metric used in the paper's evaluation. *)
let norm_exponent = 0.5

let make_plan strategy weighting root =
  let d = dense_of root in
  let count = Array.length d.nodes in
  let values = Array.make count 0.0 in
  let scores = Array.make count infinity in
  (match weighting with
  | Unweighted ->
    for i = 0 to count - 1 do
      if d.var.(i) >= 0 then begin
        values.(i) <-
          (match strategy with
          | Average -> d.avg.(i)
          | Upper_bound -> d.maxv.(i)
          | Lower_bound -> d.minv.(i));
        scores.(i) <-
          (match strategy with
          | Average -> d.variance.(i)
          | Upper_bound ->
            d.variance.(i) +. ((d.maxv.(i) -. d.avg.(i)) ** 2.0)
          | Lower_bound ->
            d.variance.(i) +. ((d.minv.(i) -. d.avg.(i)) ** 2.0))
      end
    done
  | Uniform_mass ->
    let mass = dense_markov d Markov.uniform in
    for i = 0 to count - 1 do
      if d.var.(i) >= 0 then begin
        let m, _, _ = mixed mass i ~default1:d.avg.(i) ~default2:0.0 in
        values.(i) <-
          (match strategy with
          | Average -> d.avg.(i)
          | Upper_bound -> d.maxv.(i)
          | Lower_bound -> d.minv.(i));
        scores.(i) <-
          m
          *.
          (match strategy with
          | Average -> d.variance.(i)
          | Upper_bound ->
            d.variance.(i) +. ((d.maxv.(i) -. d.avg.(i)) ** 2.0)
          | Lower_bound ->
            d.variance.(i) +. ((d.minv.(i) -. d.avg.(i)) ** 2.0))
      end
    done
  | Robust anchors ->
    let anchors = if anchors = [] then Markov.default_anchors else anchors in
    let tables = List.map (dense_markov d) anchors in
    (* each anchor's damage is normalized by the mean capacitance under
       that anchor raised to [norm_exponent]: the evaluation metric is
       relative error, and an absolute error of 5 fF matters more when
       the expected capacitance is 10 than when it is 70 *)
    let norms =
      List.map
        (fun t ->
          let _, e1, _ = mixed t 0 ~default1:d.avg.(0) ~default2:0.0 in
          1.0 /. Float.max 1e-12 (Float.abs e1 ** norm_exponent))
        tables
    in
    let pairs = List.combine tables norms in
    for i = 0 to count - 1 do
      if d.var.(i) >= 0 then begin
        let default1 = d.avg.(i)
        and default2 = d.variance.(i) +. (d.avg.(i) ** 2.0) in
        let ms =
          List.map
            (fun (t, norm) ->
              let m, e1, e2 = mixed t i ~default1 ~default2 in
              (m, e1, e2, norm))
            pairs
        in
        let r =
          match strategy with
          | Upper_bound -> d.maxv.(i)
          | Lower_bound -> d.minv.(i)
          | Average ->
            (* the constant minimizing the summed normalized damage *)
            let num, den =
              List.fold_left
                (fun (num, den) (m, e1, _, norm) ->
                  (num +. (norm *. m *. e1), den +. (norm *. m)))
                (0.0, 0.0) ms
            in
            if den <= 0.0 then d.avg.(i) else num /. den
        in
        values.(i) <- r;
        scores.(i) <-
          List.fold_left
            (fun acc (m, e1, e2, norm) ->
              Float.max acc
                (norm *. m *. (e2 -. (2.0 *. r *. e1) +. (r *. r))))
            0.0 ms
      end
    done);
  let candidates = ref [] in
  for i = count - 1 downto 0 do
    if d.var.(i) >= 0 then candidates := i :: !candidates
  done;
  let ranked = Array.of_list !candidates in
  Array.sort
    (fun a b ->
      match compare scores.(a) scores.(b) with 0 -> compare a b | c -> c)
    ranked;
  { dense = d; ranked; values; scores }

(* Size of the collapse of the first [k] candidates, without building it:
   kept internal nodes reachable from the root avoiding collapsed ones,
   plus the distinct leaf constants of the result. *)
let probe_size plan k =
  let d = plan.dense in
  let count = Array.length d.nodes in
  let collapsed = Array.make count false in
  for i = 0 to k - 1 do
    collapsed.(plan.ranked.(i)) <- true
  done;
  let visited = Array.make count false in
  let leaves : (float, unit) Hashtbl.t = Hashtbl.create 64 in
  let internal = ref 0 in
  (* depth is bounded by the variable count, so recursion is safe *)
  let rec go i =
    if not visited.(i) then begin
      visited.(i) <- true;
      if d.var.(i) < 0 then Hashtbl.replace leaves d.leaf_value.(i) ()
      else if collapsed.(i) then Hashtbl.replace leaves plan.values.(i) ()
      else begin
        incr internal;
        go d.low.(i);
        go d.high.(i)
      end
    end
  in
  go 0;
  !internal + Hashtbl.length leaves

let build_collapse mgr plan k =
  let d = plan.dense in
  let count = Array.length d.nodes in
  let collapsed = Array.make count false in
  for i = 0 to k - 1 do
    collapsed.(plan.ranked.(i)) <- true
  done;
  let memo = Array.make count None in
  let rec go i =
    match memo.(i) with
    | Some r -> r
    | None ->
      let r =
        if d.var.(i) < 0 then d.nodes.(i)
        else if collapsed.(i) then Add.const mgr plan.values.(i)
        else Add.make_node mgr d.var.(i) (go d.low.(i)) (go d.high.(i))
      in
      memo.(i) <- Some r;
      r
  in
  go 0

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

let compress ~weighting mgr ~strategy ~max_size root =
  if Add.size_under mgr root ~limit:max_size <> None then root
  else search mgr (make_plan strategy weighting root) max_size

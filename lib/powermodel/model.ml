type build_stats = {
  gates : int;
  gates_done : int;
  skipped : int;
  approx_calls : int;
  peak_size : int;
  final_size : int;
  bdd_nodes : int;
  cpu_seconds : float;
  wall_seconds : float;
  degrade_steps : int;
  sift_swaps : int;
  reorder_gain : int;
}

type t = {
  circuit_name : string;
  inputs : int;
  strategy : Dd.Approx.strategy;
  weighting : Dd.Approx.weighting;
  max_size : int option;
  reorder : Reorder.policy;
  add_manager : Dd.Add.manager;
  cap : Dd.Add.t;
  stats : build_stats;
}

let bdd_logic mgr =
  {
    Netlist.Cell.ltrue = Dd.Bdd.one;
    lfalse = Dd.Bdd.zero;
    lnot = Dd.Bdd.bnot mgr;
    land_ = Dd.Bdd.band mgr;
    lor_ = Dd.Bdd.bor mgr;
    lxor_ = Dd.Bdd.bxor mgr;
  }

exception Build_aborted of Guard.Error.t * build_stats

(* Teach the generic fault-isolation funnel (Pool.run_isolated) about our
   abort exception, so a budget-exhausted build surfaces as its structured
   Resource error rather than an Internal catch-all. *)
let () =
  Guard.Error.register_exn_handler (function
    | Build_aborted (e, _) -> Some e
    | _ -> None)

(* How far the degradation ladder may tighten the effective MAX before
   node pressure becomes a hard failure: below this many nodes the model
   is a near-constant and halving again cannot meaningfully shrink the
   manager. *)
let degrade_floor = 8

(* The iterative construction of Fig. 6: for each gate j,
     deltaC(x_i, x_f) = NOT g_j(x_i) AND g_j(x_f), weighted by C_j,
   accumulated into C with the size bound MAX enforced by node collapsing
   after each step.  Both the partial contribution and the accumulator are
   approximated with the same strategy, which stays globally sound because
   avg(a) + avg(b) = avg(a + b) and max(a) + max(b) >= max(a + b).

   Resource governance: when a [budget] is given (explicitly or ambiently,
   e.g. by [Pool.run_isolated ~deadline]), the gate loop checkpoints it
   once per gate.  Deadline or collapse-ceiling hits abort immediately;
   node pressure first triggers graceful degradation — sweep the dead
   nodes, then progressively halve the effective MAX (escalating collapse)
   down to [degrade_floor] — and only aborts when even the maximally
   collapsed model cannot fit the ceiling.  Aborts raise {!Build_aborted}
   carrying the partial [build_stats], so callers can report how far the
   construction got. *)
(* Deterministic construction metrics, merged into the bench report's
   [metrics] member.  Every value is attributable to a completed build
   (per-task managers, per-task counters), so the totals are identical
   for any worker-domain count on a fixed workload; see lib/obs. *)
let m_builds = Obs.Metrics.metric "model.builds"
let m_gates_done = Obs.Metrics.metric "model.gates_done"
let m_approx_calls = Obs.Metrics.metric "model.approx_calls"
let m_degrade_steps = Obs.Metrics.metric "model.degrade_steps"
let m_cache_hits = Obs.Metrics.metric "dd.cache_hits"
let m_cache_misses = Obs.Metrics.metric "dd.cache_misses"
let m_peak_nodes = Obs.Metrics.metric ~kind:Obs.Metrics.Max "dd.peak_add_nodes"

(* reorder accounting: swaps performed and nodes saved per completed
   build — attributable to the workload, so deterministic across jobs *)
let m_sift_swaps = Obs.Metrics.metric "dd.sift_swaps"
let m_reorder_gain = Obs.Metrics.metric "dd.reorder_gain"

let build ?budget ?reorder ?(strategy = Dd.Approx.Average)
    ?(weighting = Dd.Approx.default_weighting) ?max_size ?output_load ?loads
    circuit =
  (match max_size with
  | Some m when m < 1 -> invalid_arg "Model.build: max_size must be >= 1"
  | Some _ | None -> ());
  let reorder =
    match reorder with Some p -> p | None -> Reorder.ambient ()
  in
  (* chaos-testing seam: inert unless a fault spec is armed AND we are
     inside a supervised task (Guard.Fault's ambient scope) *)
  Guard.Fault.inject "model_build";
  Obs.Trace.with_span "model_build" ~cat:"build"
    ~args:(fun () ->
      [
        ("circuit", Json.String circuit.Netlist.Circuit.name);
        ("gates", Json.Int (Netlist.Circuit.gate_count circuit));
        ( "max_size",
          match max_size with Some m -> Json.Int m | None -> Json.Null );
      ])
    ~result_args:(fun t ->
      [
        ("final_nodes", Json.Int t.stats.final_size);
        ("peak_nodes", Json.Int t.stats.peak_size);
        ("approx_calls", Json.Int t.stats.approx_calls);
      ])
  @@ fun () ->
  let budget =
    match budget with Some _ -> budget | None -> Guard.Budget.ambient ()
  in
  let t0 = Sys.time () in
  let w0 = Guard.Budget.now () in
  let n = Netlist.Circuit.input_count circuit in
  let bdd_mgr = Dd.Bdd.manager () in
  let add_mgr = Dd.Add.manager () in
  (* Info policies need the static order; computed once, before any node
     exists (one topological netlist pass, no diagrams). *)
  let info_order =
    match reorder with
    | Reorder.Info_static | Reorder.Info_then_sift ->
      Some (Reorder.order ~inputs:n (Reorder.info_pair_order circuit))
    | Reorder.Declared | Reorder.Sift -> None
  in
  (* Two regimes keep estimates byte-identical across policies.  Exact
     builds (no [max_size]) may install the info order statically: the
     final diagram is the same function whatever the order, just shaped
     differently.  Bounded builds may NOT — collapse decisions depend on
     diagram shape, so a different construction order would collapse
     different sub-functions and change the numbers.  They always build
     in the declared order and reorder the finished model in place
     (function-preserving swaps), below. *)
  let pre_ordered =
    match (info_order, max_size) with
    | Some ord, None ->
      Dd.Bdd.set_order bdd_mgr ord;
      Dd.Add.set_order add_mgr ord;
      true
    | _ -> false
  in
  let logic = bdd_logic bdd_mgr in
  let env_i = Array.init n (fun j -> Dd.Bdd.var bdd_mgr (Vars.initial j)) in
  let values_i =
    Obs.Trace.with_span "bdd_build" ~cat:"build" (fun () ->
        Netlist.Circuit.eval_all logic circuit env_i)
  in
  (* The final-copy node functions are the initial-copy ones with every
     variable renamed 2j -> 2j+1 (interleaved numbering, see {!Vars}).
     Renaming by a constant offset preserves the variable order, so
     [Bdd.shift] derives them by a memoized structural copy instead of
     re-evaluating the whole netlist symbolically. *)
  let values_f =
    Obs.Trace.with_span "bdd_shift" ~cat:"build" (fun () ->
        Array.map (Dd.Bdd.shift bdd_mgr 1) values_i)
  in
  let loads =
    match loads with
    | Some loads ->
      if Array.length loads <> circuit.Netlist.Circuit.net_count then
        invalid_arg "Model.build: loads length must equal net count";
      Array.copy loads
    | None -> (
      match output_load with
      | None -> Netlist.Circuit.loads circuit
      | Some output_load -> Netlist.Circuit.loads ~output_load circuit)
  in
  let cap = ref (Dd.Add.const add_mgr 0.0) in
  let approx_calls = ref 0 in
  let peak = ref 1 in
  let skipped = ref 0 in
  let gates_done = ref 0 in
  let degrade_steps = ref 0 in
  let sift_swaps = ref 0 in
  let reorder_gain = ref 0 in
  (* the budget ladder may tighten this below the requested max_size *)
  let effective_max = ref max_size in
  let mk_stats () =
    {
      gates = Netlist.Circuit.gate_count circuit;
      gates_done = !gates_done;
      skipped = !skipped;
      approx_calls = !approx_calls;
      peak_size = !peak;
      final_size = Dd.Add.size_in add_mgr !cap;
      bdd_nodes = Dd.Bdd.node_count bdd_mgr;
      cpu_seconds = Sys.time () -. t0;
      wall_seconds = Guard.Budget.now () -. w0;
      degrade_steps = !degrade_steps;
      sift_swaps = !sift_swaps;
      reorder_gain = !reorder_gain;
    }
  in
  let abort err =
    let err =
      Guard.Error.with_context
        [
          ("circuit", circuit.Netlist.Circuit.name);
          ("gates_done", string_of_int !gates_done);
          ("gates", string_of_int (Netlist.Circuit.gate_count circuit));
          ("degrade_steps", string_of_int !degrade_steps);
        ]
        err
    in
    raise (Build_aborted (err, mk_stats ()))
  in
  (* The unique table retains every intermediate node, so a long
     construction would otherwise hold (and probe against) millions of
     dead nodes: when the table outgrows a budget, the accumulator is
     protected as the sole GC root and the manager is swept in place.
     Surviving nodes are not copied, the Perf counter window keeps
     running, and the unique table shrinks back to the live set. *)
  let m_delta_bound () =
    match !effective_max with None -> max_int | Some m -> m / 8
  in
  let sweep_keep_cap () =
    Dd.Add.protect add_mgr !cap;
    Dd.Add.sweep add_mgr;
    Dd.Add.unprotect add_mgr !cap
  in
  let purge_budget = 1_000_000 in
  let purge () =
    if Dd.Add.unique_size add_mgr > purge_budget then sweep_keep_cap ()
  in
  (* Intermediate results may exceed MAX by up to a third before a
     collapse brings them back to MAX — Fig. 6 semantics with hysteresis,
     saving most of the collapse invocations on large circuits.  A final
     clamp (below) restores the strict bound on the finished model.
     [size_under] makes the per-gate bound check O(trigger) — visiting at
     most trigger + 1 nodes on the manager's visit stamps — instead of a
     full hash-table traversal of the accumulator per gate. *)
  let clamp ?(slack = true) ?bound add =
    match !effective_max with
    | None -> add
    | Some m ->
      let m = match bound with None -> m | Some b -> min m b in
      let trigger = if slack then m + (m / 3) else m in
      (match Dd.Add.size_under add_mgr add ~limit:trigger with
      | Some sz ->
        if sz > !peak then peak := sz;
        add
      | None ->
        let sz = Dd.Add.size_in add_mgr add in
        if sz > !peak then peak := sz;
        incr approx_calls;
        Dd.Approx.compress ~weighting add_mgr ~strategy ~max_size:m add)
  in
  (* The cooperative checkpoint, called once per gate.  Node accounting
     covers both managers: the BDD side is a fixed cost once the node
     functions exist, so only the ADD side can be recovered — if the BDD
     alone busts the ceiling, the ladder bottoms out and aborts. *)
  let total_nodes () =
    Dd.Add.unique_size add_mgr + Dd.Bdd.unique_size bdd_mgr
  in
  let degrade b =
    (* step 0 of the ladder is free: sweeping drops dead intermediates
       without touching accuracy, and often clears the pressure alone *)
    sweep_keep_cap ();
    let rec ladder () =
      match Guard.Budget.check b ~nodes:(total_nodes ()) with
      | Guard.Budget.Within -> ()
      | Guard.Budget.Exhausted err -> abort err (* deadline during ladder *)
      | Guard.Budget.Node_pressure { nodes; _ } ->
        let current =
          match !effective_max with
          | Some m -> m
          | None -> Dd.Add.size_in add_mgr !cap
        in
        if current <= degrade_floor then
          abort (Guard.Budget.exhausted_nodes b ~nodes)
        else begin
          let next = max degrade_floor (current / 2) in
          effective_max := Some next;
          incr degrade_steps;
          incr approx_calls;
          cap :=
            Dd.Approx.compress ~weighting add_mgr ~strategy ~max_size:next
              !cap;
          sweep_keep_cap ();
          ladder ()
        end
    in
    ladder ()
  in
  let checkpoint () =
    match budget with
    | None -> ()
    | Some b -> (
      match
        Guard.Budget.check b ~nodes:(total_nodes ())
          ~collapses:!approx_calls
      with
      | Guard.Budget.Within -> ()
      | Guard.Budget.Exhausted err -> abort err
      | Guard.Budget.Node_pressure _ -> degrade b)
  in
  Obs.Trace.with_span "add_compose" ~cat:"build" (fun () ->
      Array.iter
        (fun (g : Netlist.Circuit.gate) ->
          checkpoint ();
          let load = loads.(g.out) in
          if load = 0.0 then incr skipped
          else begin
            let rising =
              Dd.Bdd.band bdd_mgr
                (Dd.Bdd.bnot bdd_mgr values_i.(g.out))
                values_f.(g.out)
            in
            (* of_bdd with the load as the one-value fuses the paper's
               bdd-to-ADD conversion and add_times into one traversal. *)
            let delta = Dd.Add.of_bdd add_mgr ~one_value:load rising in
            (* per-gate contributions are bounded much harder than the
               accumulator: the cost of adding a delta is the size of the
               cross product, and the accumulator's own clamp dominates the
               final accuracy anyway *)
            let delta = clamp ~bound:(max 64 (m_delta_bound ())) delta in
            cap := clamp (Dd.Add.add add_mgr !cap delta);
            purge ()
          end;
          incr gates_done)
        circuit.Netlist.Circuit.gates);
  (* the last gate may have pushed past a ceiling *)
  checkpoint ();
  Obs.Trace.with_span "final_clamp" ~cat:"build" (fun () ->
      cap := clamp ~slack:false !cap);
  (* Post-build reorder: in-place, function-preserving level swaps on the
     finished model ([cap] keeps its node identity and its values at
     every transition — estimates cannot change).  Bounded builds apply
     the info order here (see [pre_ordered] above); sifting always runs
     here, on the final diagram.  The sweep inside drops the dead
     intermediates, so only [cap] must be protected. *)
  (match reorder with
  | Reorder.Declared -> ()
  | _ ->
    Obs.Trace.with_span "reorder" ~cat:"build"
      ~args:(fun () ->
        [
          ("policy", Json.String (Reorder.to_string reorder));
          ("before_nodes", Json.Int (Dd.Add.size_in add_mgr !cap));
        ])
      ~result_args:(fun () ->
        [
          ("after_nodes", Json.Int (Dd.Add.size_in add_mgr !cap));
          ("swaps", Json.Int !sift_swaps);
        ])
    @@ fun () ->
    let size_before = Dd.Add.size_in add_mgr !cap in
    let order_before = Dd.Add.var_order add_mgr ~vars:(Vars.count ~inputs:n) in
    Dd.Add.protect add_mgr !cap;
    Fun.protect
      ~finally:(fun () -> Dd.Add.unprotect add_mgr !cap)
      (fun () ->
        (match (info_order, pre_ordered) with
        | Some ord, false ->
          let st = Dd.Add.reorder_to add_mgr ord in
          sift_swaps := !sift_swaps + st.Dd.Add.swaps
        | _ -> ());
        (match reorder with
        | Reorder.Sift | Reorder.Info_then_sift ->
          let max_swaps =
            match Option.bind budget Guard.Budget.swap_ceiling with
            | Some c -> Some (max 0 (c - !sift_swaps))
            | None -> None
          in
          let st = Dd.Add.sift ~group_pairs:true ?max_swaps add_mgr in
          sift_swaps := !sift_swaps + st.Dd.Add.swaps
        | Reorder.Declared | Reorder.Info_static -> ());
        (* Never-worse guard: a collapsed model was shaped by the order it
           was built in, and forcing the info order onto it can inflate it
           (sifting cannot — it settles at its best seen).  Canonicity
           makes the revert exact: restoring the order restores the size. *)
        if Dd.Add.size_in add_mgr !cap > size_before then begin
          let st = Dd.Add.reorder_to add_mgr order_before in
          sift_swaps := !sift_swaps + st.Dd.Add.swaps
        end);
    reorder_gain := size_before - Dd.Add.size_in add_mgr !cap;
    (* the sift stops before its [max_swaps], so this only trips when a
       swap ceiling was already consumed by the info reorder *)
    match budget with
    | None -> ()
    | Some b -> (
      match Guard.Budget.check b ~swaps:!sift_swaps with
      | Guard.Budget.Exhausted err -> abort err
      | Guard.Budget.Within | Guard.Budget.Node_pressure _ -> ()));
  let final_size = Dd.Add.size_in add_mgr !cap in
  if final_size > !peak then peak := final_size;
  let stats = mk_stats () in
  (* completed builds feed the deterministic metrics registry; aborted
     ones do not (a deadline abort's partial counts depend on timing) *)
  Obs.Metrics.incr m_builds;
  Obs.Metrics.add m_gates_done stats.gates_done;
  Obs.Metrics.add m_approx_calls stats.approx_calls;
  Obs.Metrics.add m_degrade_steps stats.degrade_steps;
  Obs.Metrics.add m_cache_hits
    (Dd.Perf.total_hits (Dd.Add.perf add_mgr)
    + Dd.Perf.total_hits (Dd.Bdd.perf bdd_mgr));
  Obs.Metrics.add m_cache_misses
    (Dd.Perf.total_misses (Dd.Add.perf add_mgr)
    + Dd.Perf.total_misses (Dd.Bdd.perf bdd_mgr));
  Obs.Metrics.add m_peak_nodes stats.peak_size;
  Obs.Metrics.add m_sift_swaps stats.sift_swaps;
  Obs.Metrics.add m_reorder_gain stats.reorder_gain;
  {
    circuit_name = circuit.Netlist.Circuit.name;
    inputs = n;
    strategy;
    weighting;
    max_size;
    reorder;
    add_manager = add_mgr;
    cap = !cap;
    stats;
  }

type build_failure = { error : Guard.Error.t; partial : build_stats option }

(* The Result-returning entry point: every exception the construction can
   produce — budget exhaustion, argument validation, broken internal
   invariants — comes back as a classified Guard.Error, with the partial
   build statistics attached when the gate loop got far enough to have
   any. *)
let build_checked ?budget ?reorder ?strategy ?weighting ?max_size
    ?output_load ?loads circuit =
  match build ?budget ?reorder ?strategy ?weighting ?max_size ?output_load
          ?loads circuit
  with
  | model -> Ok model
  | exception Build_aborted (error, stats) ->
    Error { error; partial = Some stats }
  | exception ((Invalid_argument _ | Failure _ | Guard.Error.Guarded _) as e)
    ->
    Error { error = Guard.Error.of_exn e; partial = None }

let is_exact t = t.stats.approx_calls = 0

let size t = Dd.Add.size_in t.add_manager t.cap

let switched_capacitance t ~x_i ~x_f =
  if Array.length x_i <> t.inputs || Array.length x_f <> t.inputs then
    invalid_arg "Model.switched_capacitance: input width mismatch";
  Dd.Add.eval t.cap (Vars.env ~x_i ~x_f)

let energy ?(vdd = 3.3) t ~x_i ~x_f =
  vdd *. vdd *. switched_capacitance t ~x_i ~x_f

type run = {
  patterns : int;
  average : float;
  maximum : float;
  total : float;
}

let run t vectors =
  let count = Array.length vectors in
  if count < 2 then invalid_arg "Model.run: need at least two vectors";
  let total = ref 0.0 and maximum = ref neg_infinity in
  for k = 1 to count - 1 do
    let c = switched_capacitance t ~x_i:vectors.(k - 1) ~x_f:vectors.(k) in
    total := !total +. c;
    if c > !maximum then maximum := c
  done;
  {
    patterns = count - 1;
    average = !total /. float_of_int (count - 1);
    maximum = !maximum;
    total = !total;
  }

(* ------------------------------------------------------------------ *)
(* Compiled bulk evaluation.  The program is compiled over the full
   interleaved variable width (Vars.count), not just the support, so a
   batch's per-vector stride is always 2 * inputs and callers can pack
   transitions without knowing which inputs the model actually reads. *)

type compiled = { source : t; program : Dd.Compiled.t }

let compile t =
  let vars = Vars.count ~inputs:t.inputs in
  {
    source = t;
    program =
      Dd.Compiled.compile
        ~order:(Dd.Add.var_order t.add_manager ~vars)
        ~vars ~size:t.stats.final_size t.cap;
  }

let triples t =
  let vars = Vars.count ~inputs:t.inputs in
  Dd.Compiled.triples ~order:(Dd.Add.var_order t.add_manager ~vars) ~vars
    ~size:t.stats.final_size t.cap

(* At sp = st = 0.5 every branch weight is exactly 0.5, so each node's
   [0.5 *. l +. 0.5 *. h] rounds like Eq. 7's [0.5 *. (l +. h)]: this is
   the uniform average bit for bit. *)
let average_capacitance t = Dd.Markov.expectation Dd.Markov.uniform (triples t)

let compiled_of_program t program =
  if Dd.Compiled.vars program <> Vars.count ~inputs:t.inputs then
    invalid_arg "Model.compiled_of_program: program width is not 2 * inputs";
  { source = t; program }

let compiled_model c = c.source
let compiled_program c = c.program

let switched_capacitance_compiled c ~x_i ~x_f =
  if
    Array.length x_i <> c.source.inputs
    || Array.length x_f <> c.source.inputs
  then invalid_arg "Model.switched_capacitance_compiled: input width mismatch";
  Dd.Compiled.eval c.program (Vars.env ~x_i ~x_f)

let pack_transitions c vectors =
  let count = Array.length vectors in
  if count < 2 then invalid_arg "Model.pack_transitions: need at least two vectors";
  let inputs = c.source.inputs in
  Array.iter
    (fun v ->
      if Array.length v <> inputs then
        invalid_arg "Model.pack_transitions: vector width mismatch")
    vectors;
  let stride = Vars.count ~inputs in
  let n = count - 1 in
  let b = Bytes.create (n * stride) in
  for k = 1 to count - 1 do
    let x_i = vectors.(k - 1) and x_f = vectors.(k) in
    let base = (k - 1) * stride in
    for j = 0 to inputs - 1 do
      Bytes.unsafe_set b (base + (2 * j))
        (if Array.unsafe_get x_i j then '\001' else '\000');
      Bytes.unsafe_set b
        (base + (2 * j) + 1)
        (if Array.unsafe_get x_f j then '\001' else '\000')
    done
  done;
  (b, n)

let eval_batch ?jobs c ~inputs ~n =
  Dd.Compiled.eval_batch ?jobs c.program ~inputs ~n

let run_compiled ?jobs c vectors =
  let batch, n = pack_transitions c vectors in
  let s = Dd.Compiled.stats_batch ?jobs c.program ~inputs:batch ~n in
  {
    patterns = n;
    average = s.Dd.Compiled.total /. float_of_int n;
    maximum = s.Dd.Compiled.maximum;
    total = s.Dd.Compiled.total;
  }

let max_capacitance t = Dd.Add.max_value t.cap

let var_name t v = Vars.name ~inputs:t.inputs v

let to_dot t = Dd.Dot.add ~name:t.circuit_name ~var_name:(var_name t) t.cap

(* The independent worst-case oracle: PBO branch-and-bound beside the ADD
   traversal.  See adversarial.mli for the contract. *)

type result_ = {
  value : float;
  x_i : bool array;
  x_f : bool array;
  optimal : bool;
  upper : float;
  stats : Pbo.Solver.stats option;
  reason : Guard.Error.t option;
}

let m_solves = Obs.Metrics.metric "pbo.solves"
let m_conflicts = Obs.Metrics.metric "pbo.conflicts"
let m_decisions = Obs.Metrics.metric "pbo.decisions"
let m_optimal = Obs.Metrics.metric "pbo.optimal"
let m_bounded = Obs.Metrics.metric "pbo.bounded"

let of_witness ~exact (x_i, x_f, value) =
  { value; x_i; x_f; optimal = exact; upper = value; stats = None; reason = None }

let worst_add model =
  of_witness ~exact:(Model.is_exact model)
    (Analysis.worst_case_transition model)

let worst_add_compiled c =
  of_witness ~exact:(Model.compiled_is_exact c)
    (Analysis.worst_case_transition_compiled c)

let worst_pbo ?budget ?output_load ?loads ?hint circuit =
  let budget =
    match budget with Some _ -> budget | None -> Guard.Budget.ambient ()
  in
  Obs.Trace.with_span "adversarial_solve" ~cat:"adversarial"
    ~args:(fun () ->
      [ ("circuit", Json.String circuit.Netlist.Circuit.name) ])
    ~result_args:(fun r ->
      match r with
      | Ok r ->
        [ ("value", Json.Float r.value); ("optimal", Json.Bool r.optimal) ]
      | Error _ -> [ ("failed", Json.Bool true) ])
    (fun () ->
      let enc = Pbo.Encode.encode ?output_load ?loads circuit in
      let n = Netlist.Circuit.input_count circuit in
      let hint =
        match hint with
        | Some (x_i, x_f) -> Pbo.Encode.assignment_of_transition enc x_i x_f
        | None ->
          (* all-zeros -> all-ones: always consistent, usually rich in
             rising edges — a solid first incumbent for free *)
          Pbo.Encode.assignment_of_transition enc (Array.make n false)
            (Array.make n true)
      in
      Obs.Metrics.incr m_solves;
      match Pbo.Solver.solve ?budget ~hint enc.Pbo.Encode.problem with
      | Error e -> Error e
      | Ok o ->
        Obs.Metrics.add m_conflicts o.Pbo.Solver.stats.Pbo.Solver.conflicts;
        Obs.Metrics.add m_decisions o.Pbo.Solver.stats.Pbo.Solver.decisions;
        let x_i, x_f = Pbo.Encode.witness_transition enc o.Pbo.Solver.witness in
        let optimal, upper, reason =
          match o.Pbo.Solver.proof with
          | Pbo.Solver.Optimal ->
            Obs.Metrics.incr m_optimal;
            (true, o.Pbo.Solver.value, None)
          | Pbo.Solver.Bounded { upper; reason } ->
            Obs.Metrics.incr m_bounded;
            (false, upper, Some reason)
        in
        Ok
          {
            value = o.Pbo.Solver.value;
            x_i;
            x_f;
            optimal;
            upper;
            stats = Some o.Pbo.Solver.stats;
            reason;
          })

type agreement = {
  add : result_;
  pbo : result_;
  comparable : bool;
  agree : bool;
}

let cross_validate ?budget ?output_load model circuit =
  let add = worst_add model in
  match worst_pbo ?budget ?output_load circuit with
  | Error e -> Error e
  | Ok pbo ->
    let comparable = add.optimal && pbo.optimal in
    let agree =
      if comparable then add.value = pbo.value
        (* exact dyadic sums: float equality, no epsilon *)
      else pbo.value <= add.upper
      (* a real achieved capacitance can never exceed a sound bound *)
    in
    Ok { add; pbo; comparable; agree }

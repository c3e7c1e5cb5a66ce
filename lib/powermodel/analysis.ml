(* Analytical queries on a constructed model.

   Because the model is a closed-form ADD over the transition variables,
   questions that would need long simulations on a black-box model are a
   single diagram traversal here:

   - the transition that maximizes the (bound on) switching capacitance —
     the "input conditions that maximize the internal switching activity"
     the worst-case literature the paper cites searches for;
   - the expected capacitance under given Markov input statistics, exactly;
   - per-input sensitivities: how much expected capacitance each input's
     toggling contributes.

   Each is one memoized pass over the triple program (flat arrays indexed
   by triple offset), which keeps the diagram's sharing and child order,
   so it performs the float operations of an ADD walk.  Scratch arrays
   are per call: concurrent queries share no mutable state. *)

let compiled_triples c = Dd.Compiled.to_repr (Model.compiled_program c)

(* Follow a max-value path; unconstrained variables (levels skipped by the
   reduced diagram) are filled with [false].  The subtree max is memoized
   per triple under polymorphic [compare] (the [Add.max_value] order), and
   the descent keeps the [high >= low] float tie-break: O(triples). *)
let worst (p : Dd.Compiled.repr) ~inputs =
  let code = p.r_code and leaves = p.r_leaves in
  let n = Array.length code / 3 in
  let smax = Array.make n 0.0 and known = Array.make n false in
  let rec subtree_max r =
    if r < 0 then leaves.(lnot r)
    else begin
      let i = r / 3 in
      if not known.(i) then begin
        let ml = subtree_max code.(r + 1) in
        let mh = subtree_max code.(r + 2) in
        smax.(i) <- (if compare mh ml >= 0 then mh else ml);
        known.(i) <- true
      end;
      smax.(i)
    end
  in
  let env = Array.make (Vars.count ~inputs) false in
  let rec descend r =
    if r < 0 then leaves.(lnot r)
    else begin
      let high = subtree_max code.(r + 2) >= subtree_max code.(r + 1) in
      env.(code.(r)) <- high;
      descend code.(if high then r + 2 else r + 1)
    end
  in
  let value = descend p.r_root in
  let x_i = Array.init inputs (fun j -> env.(Vars.initial j)) in
  let x_f = Array.init inputs (fun j -> env.(Vars.final j)) in
  (x_i, x_f, value)

let worst_case_transition model =
  worst (Model.triples model) ~inputs:model.Model.inputs

let worst_case_transition_compiled c =
  worst (compiled_triples c) ~inputs:(Model.compiled_inputs c)

let expected_capacitance model ~sp ~st =
  Dd.Markov.expectation { Dd.Markov.sp; st } (Model.triples model)

let expected_capacitance_compiled c ~sp ~st =
  Dd.Markov.expectation { Dd.Markov.sp; st } (compiled_triples c)

(* Sensitivity of input j: expected capacitance given that input j toggles
   minus given that it holds, under otherwise-uniform inputs — the uniform
   average (Eq. 7) of the function restricted on the (x_j_i, x_j_f) pair.
   A restricted average follows the fixed branch at the pair's triples,
   reuses the unrestricted average below the pair's deeper level, and
   averages both children elsewhere; where restricting an ADD would reduce
   a node (equal children), averaging two equal halves gives that same
   float.  The unrestricted averages are shared across inputs. *)
let sensitivity (p : Dd.Compiled.repr) ~inputs =
  let code = p.r_code and leaves = p.r_leaves in
  let n = Array.length code / 3 in
  let level = Array.make p.r_vars 0 in
  Array.iteri (fun l v -> level.(v) <- l) p.r_order;
  let avg = Array.make n 0.0 and known = Array.make n false in
  let rec average r =
    if r < 0 then leaves.(lnot r)
    else begin
      let i = r / 3 in
      if not known.(i) then begin
        avg.(i) <- 0.5 *. (average code.(r + 1) +. average code.(r + 2));
        known.(i) <- true
      end;
      avg.(i)
    end
  in
  (* one memo for every restricted pass, valid where [stamp] = the pass *)
  let rest = Array.make n 0.0 and stamp = Array.make n 0 in
  let pass = ref 0 in
  fun j ->
    if j < 0 || j >= inputs then
      invalid_arg "Analysis.toggle_sensitivity: input out of range";
    let vi = Vars.initial j and vf = Vars.final j in
    (* compare levels, not variable indices — after a reorder a deeper
       node may carry a smaller variable number *)
    let cut = max level.(vi) level.(vf) in
    let restricted b_i b_f =
      incr pass;
      let id = !pass in
      let rec go r =
        if r < 0 then leaves.(lnot r)
        else
          let var = code.(r) in
          if var = vi then go code.(if b_i then r + 2 else r + 1)
          else if var = vf then go code.(if b_f then r + 2 else r + 1)
          else if level.(var) > cut then average r
          else begin
            let i = r / 3 in
            if stamp.(i) <> id then begin
              rest.(i) <- 0.5 *. (go code.(r + 1) +. go code.(r + 2));
              stamp.(i) <- id
            end;
            rest.(i)
          end
      in
      go p.r_root
    in
    let toggle = 0.5 *. (restricted false true +. restricted true false) in
    let hold = 0.5 *. (restricted false false +. restricted true true) in
    toggle -. hold

let toggle_sensitivity model j =
  sensitivity (Model.triples model) ~inputs:model.Model.inputs j

let toggle_sensitivities model =
  let inputs = model.Model.inputs in
  Array.init inputs (sensitivity (Model.triples model) ~inputs)

let toggle_sensitivities_compiled c =
  let inputs = Model.compiled_inputs c in
  Array.init inputs (sensitivity (compiled_triples c) ~inputs)

(* Markov input statistics over a transition ADD, and the exact
   expectation of a triple program under them.

   The diagrams built by the power-model construction are functions of
   interleaved variable pairs: variable 2j is input j at time t_i, variable
   2j+1 the same input at t_f.  Under the stimulus model (per-bit Markov
   chain with signal probability sp and toggle rate st), path probabilities
   are not uniform: the final-copy branch depends on the initial-copy value
   chosen one level up.  The expectation propagates that one-variable
   context (the "pending" partner value) through the reduced DAG.  It is
   exact and purely analytic — no simulation.  {!Approx.dense_markov}
   applies the same measure to node masses and moments when it collapses
   nodes by their damage under a whole family of statistics. *)

type statistics = { sp : float; st : float }

let uniform = { sp = 0.5; st = 0.5 }

(* A signal-probability x toggle-rate grid (feasible points only):
   low toggle rates are heavily represented because that is where
   uniform-measure criteria fail, and skewed signal probabilities guard the
   sp axis. *)
let default_anchors =
  let sps = [ 0.2; 0.5; 0.8 ] in
  let sts = [ 0.02; 0.05; 0.15; 0.3; 0.5; 0.7; 0.9 ] in
  List.concat_map
    (fun sp ->
      List.filter_map
        (fun st ->
          if st <= 2.0 *. Float.min sp (1.0 -. sp) then Some { sp; st }
          else None)
        sts)
    sps

(* stationary two-state chain realizing (sp, st):
   P(0->1) = st / (2 (1-sp)),  P(1->0) = st / (2 sp) *)
let p_toggle_given ~initial s =
  if initial then Float.min 1.0 (s.st /. (2.0 *. s.sp))
  else Float.min 1.0 (s.st /. (2.0 *. (1.0 -. s.sp)))

let is_initial_var v = v land 1 = 0

(* Contexts: 0 when no partner is pending (stationary marginal), else
   1 + the initial-copy value decided on the immediately preceding level
   for the final copy this triple tests. *)
let p_high s var ctx =
  if is_initial_var var then s.sp
  else
    match ctx with
    | 1 -> p_toggle_given ~initial:false s
    | 2 -> 1.0 -. p_toggle_given ~initial:true s
    | _ -> s.sp

let child_ctx code parent_var branch child =
  if is_initial_var parent_var && child >= 0 && code.(child) = parent_var + 1
  then if branch then 2 else 1
  else 0

(* Bottom-up conditional first moment, memoized per (triple, context) in
   one [3n] array ([nan] = not yet computed).  The root is reached with
   mass 1 in the empty context, so its context-0 moment is the
   expectation. *)
let expectation stats_point (prog : Compiled.repr) =
  let code = prog.r_code and leaves = prog.r_leaves in
  let memo = Array.make (Array.length code) nan in
  let rec moment r ctx =
    if r < 0 then leaves.(lnot r)
    else begin
      let cell = r + ctx in
      if Float.is_nan memo.(cell) then begin
        let var = code.(r) in
        let p = p_high stats_point var ctx in
        let lo = code.(r + 1) and hi = code.(r + 2) in
        let l1 = moment lo (child_ctx code var false lo) in
        let h1 = moment hi (child_ctx code var true hi) in
        memo.(cell) <- ((1.0 -. p) *. l1) +. (p *. h1)
      end;
      memo.(cell)
    end
  in
  moment prog.r_root 0

(* The Pbo.Solver that exclusion-clique pruning replaced, kept verbatim
   apart from re-exporting the public types.  It bounds each node by the
   achieved plus all still-undecided weights and restarts from the root
   after every incumbent.  It is the reference the pruned solver must
   reproduce on every un-budgeted solve: the same value bits, the same
   witness, the same optimality proof.

   Its original header follows.

   Branch-and-bound DPLL over CNF with a linear objective.

   Structure sheet:
   - literals are ints, [2v]/[2v+1]; watch lists are resizable int vecs of
     clause indices, MiniSat-style (the two watched literals of a clause
     are kept in positions 0 and 1 of its literal array);
   - no clause learning: on circuit encodings with input-only branching
     every full input assignment is consistent, so "conflicts" are almost
     always objective-bound prunes, and chronological flip-backtracking
     (a tried-both-ways flag per decision level) is complete;
   - the objective bound is maintained incrementally in scaled integers:
     [achieved] (weights of vars assigned true) + [pending] (weights of
     unassigned vars) bounds every completion of the current node, and
     integer arithmetic makes the invariant exact under backtracking;
   - each incumbent improvement restarts the search from the root with the
     strengthened bound (linear search on the objective, toysolver LSU
     style): the stale subtree is re-pruned cheaply and the stronger bound
     applies everywhere, not just above the current node. *)

type lit = int

let pos v = v lsl 1
let neg v = (v lsl 1) lor 1
let var_of l = l lsr 1
let negate l = l lxor 1

type problem = Pbo.Solver.problem = {
  nvars : int;
  clauses : lit array list;
  objective : (int * float) array;
  decision_order : int array;
  phase_hint : bool array;
}

type stats = Pbo.Solver.stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
}

type proof = Pbo.Solver.proof =
  | Optimal
  | Bounded of { upper : float; reason : Guard.Error.t }

type outcome = Pbo.Solver.outcome = {
  value : float;
  witness : bool array;
  proof : proof;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Resizable int vector (watch lists). *)

type ivec = { mutable a : int array; mutable n : int }

let ivec () = { a = Array.make 4 0; n = 0 }

let ipush v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * Array.length v.a) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

(* ------------------------------------------------------------------ *)

let scale_bits = 20
let scale_f = Float.of_int (1 lsl scale_bits)

let weight_int w =
  let s = Float.ceil (w *. scale_f) in
  if s >= 4.611e18 then invalid_arg "Pbo.Solver: objective weight too large";
  Int64.to_int (Int64.of_float s)

type state = {
  nvars : int;
  clauses : lit array array;
  watches : ivec array;      (* indexed by literal *)
  assign : int array;        (* per var: -1 unassigned / 0 false / 1 true *)
  trail : int array;         (* literals made true, in assignment order *)
  mutable trail_n : int;
  mutable qhead : int;
  (* decision stack, one slot per level *)
  mutable levels : int;
  lim : int array;           (* trail height before the level's decision *)
  dec_lit : int array;
  flipped : bool array;
  dec_ub : int array;        (* achieved+pending snapshot before deciding *)
  (* objective accounting, scaled ints *)
  obj_w : int array;         (* per var; 0 for non-objective vars *)
  mutable achieved : int;
  mutable pending : int;
  (* incumbent *)
  mutable best_val : float;
  mutable best_int : int;
  mutable best_wit : bool array option;
  (* stats *)
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable restarts : int;
  mutable since_check : int; (* steps since the last deadline check *)
}

let lit_value s l =
  let v = s.assign.(l lsr 1) in
  if v < 0 then -1 else v lxor (l land 1)

let enqueue s l =
  let v = l lsr 1 in
  let value = (l land 1) lxor 1 in
  s.assign.(v) <- value;
  let w = s.obj_w.(v) in
  if w > 0 then begin
    s.pending <- s.pending - w;
    if value = 1 then s.achieved <- s.achieved + w
  end;
  s.trail.(s.trail_n) <- l;
  s.trail_n <- s.trail_n + 1

let undo_to s k =
  while s.trail_n > k do
    s.trail_n <- s.trail_n - 1;
    let l = s.trail.(s.trail_n) in
    let v = l lsr 1 in
    let w = s.obj_w.(v) in
    if w > 0 then begin
      s.pending <- s.pending + w;
      if s.assign.(v) = 1 then s.achieved <- s.achieved - w
    end;
    s.assign.(v) <- -1
  done;
  s.qhead <- k

(* Two-watched-literal propagation; false on conflict. *)
let propagate s =
  let ok = ref true in
  while !ok && s.qhead < s.trail_n do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let falsified = negate p in
    let ws = s.watches.(falsified) in
    let n = ws.n in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = ws.a.(!i) in
      incr i;
      let lits = s.clauses.(c) in
      if lits.(0) = falsified then begin
        lits.(0) <- lits.(1);
        lits.(1) <- falsified
      end;
      let first = lits.(0) in
      if lit_value s first = 1 then begin
        (* satisfied: keep the watch *)
        ws.a.(!j) <- c;
        incr j
      end
      else begin
        let len = Array.length lits in
        let k = ref 2 in
        while !k < len && lit_value s lits.(!k) = 0 do incr k done;
        if !k < len then begin
          (* found a non-false replacement watch *)
          lits.(1) <- lits.(!k);
          lits.(!k) <- falsified;
          ipush s.watches.(lits.(1)) c
        end
        else begin
          ws.a.(!j) <- c;
          incr j;
          if lit_value s first = 0 then begin
            (* all literals false: conflict; keep the rest of the list *)
            ok := false;
            while !i < n do
              ws.a.(!j) <- ws.a.(!i);
              incr j;
              incr i
            done
          end
          else begin
            s.propagations <- s.propagations + 1;
            enqueue s first
          end
        end
      end
    done;
    ws.n <- !j
  done;
  !ok

let decide s l =
  s.lim.(s.levels) <- s.trail_n;
  s.dec_lit.(s.levels) <- l;
  s.flipped.(s.levels) <- false;
  s.dec_ub.(s.levels) <- s.achieved + s.pending;
  s.levels <- s.levels + 1;
  s.decisions <- s.decisions + 1;
  s.since_check <- s.since_check + 1;
  enqueue s l

(* Flip the deepest untried decision; false when the tree is exhausted. *)
let backtrack s =
  let k = ref (s.levels - 1) in
  while !k >= 0 && s.flipped.(!k) do decr k done;
  if !k < 0 then false
  else begin
    undo_to s s.lim.(!k);
    s.levels <- !k + 1;
    s.flipped.(!k) <- true;
    let l = negate s.dec_lit.(!k) in
    s.dec_lit.(!k) <- l;
    enqueue s l;
    true
  end

let pick_branch s (problem : problem) =
  let r = ref (-1) in
  let order = problem.decision_order in
  let i = ref 0 in
  let len = Array.length order in
  while !r < 0 && !i < len do
    let v = order.(!i) in
    if s.assign.(v) < 0 then r := v;
    incr i
  done;
  if !r < 0 then begin
    let v = ref 0 in
    while !r < 0 && !v < s.nvars do
      if s.assign.(!v) < 0 then r := !v;
      incr v
    done
  end;
  if !r < 0 then None
  else Some (if problem.phase_hint.(!r) then pos !r else neg !r)

let value_of (problem : problem) assignment =
  Array.fold_left
    (fun acc (v, w) -> if assignment.(v) then acc +. w else acc)
    0.0 problem.objective

let check (problem : problem) assignment =
  List.for_all
    (fun clause ->
      Array.exists
        (fun l ->
          let v = assignment.(l lsr 1) in
          if l land 1 = 0 then v else not v)
        clause)
    problem.clauses

(* Sound upper bound on the true maximum at an early stop: every unexplored
   completion lives either below an untried branch of an open decision
   (bounded by that level's pre-decision snapshot) or below the current
   node (bounded by the live achieved+pending); everything already explored
   or pruned is <= best.  Integer weights were rounded up, so dividing the
   scaled max back down stays conservative. *)
let upper_bound s =
  let u = ref (s.achieved + s.pending) in
  for k = 0 to s.levels - 1 do
    if (not s.flipped.(k)) && s.dec_ub.(k) > !u then u := s.dec_ub.(k)
  done;
  Float.max s.best_val (Float.of_int !u /. scale_f)

let stats_of s =
  {
    decisions = s.decisions;
    propagations = s.propagations;
    conflicts = s.conflicts;
    restarts = s.restarts;
  }

exception Search_done
exception Stop of Guard.Error.t

let validate (problem : problem) =
  if problem.nvars < 1 then invalid_arg "Pbo.Solver: nvars must be >= 1";
  if Array.length problem.phase_hint <> problem.nvars then
    invalid_arg "Pbo.Solver: phase_hint length must equal nvars";
  let seen = Array.make problem.nvars false in
  Array.iter
    (fun (v, w) ->
      if v < 0 || v >= problem.nvars then
        invalid_arg "Pbo.Solver: objective var out of range";
      if seen.(v) then invalid_arg "Pbo.Solver: duplicate objective var";
      seen.(v) <- true;
      if (not (Float.is_finite w)) || w < 0.0 then
        invalid_arg "Pbo.Solver: objective weights must be finite and >= 0")
    problem.objective;
  Array.iter
    (fun v ->
      if v < 0 || v >= problem.nvars then
        invalid_arg "Pbo.Solver: decision var out of range")
    problem.decision_order;
  List.iter
    (Array.iter (fun l ->
         if l < 0 || l lsr 1 >= problem.nvars then
           invalid_arg "Pbo.Solver: literal out of range"))
    problem.clauses

let unsat_error () =
  Guard.Error.validation "pseudo-Boolean instance is unsatisfiable"

let solve ?budget ?hint (problem : problem) =
  validate problem;
  let nvars = problem.nvars in
  let obj_w = Array.make nvars 0 in
  let total = ref 0 in
  Array.iter
    (fun (v, w) ->
      let wi = weight_int w in
      obj_w.(v) <- wi;
      total := !total + wi)
    problem.objective;
  (* Normalize clauses: dedup literals, drop tautologies, split off units. *)
  let units = ref [] in
  let unsat = ref false in
  let real = ref [] in
  List.iter
    (fun c ->
      let lits = List.sort_uniq compare (Array.to_list c) in
      let rec taut = function
        | a :: (b :: _ as rest) -> a lxor 1 = b || taut rest
        | _ -> false
      in
      if not (taut lits) then
        match lits with
        | [] -> unsat := true
        | [ l ] -> units := l :: !units
        | _ -> real := Array.of_list lits :: !real)
    problem.clauses;
  if !unsat then Error (unsat_error ())
  else begin
    let clauses = Array.of_list (List.rev !real) in
    let watches = Array.init (2 * nvars) (fun _ -> ivec ()) in
    Array.iteri
      (fun c lits ->
        ipush watches.(lits.(0)) c;
        ipush watches.(lits.(1)) c)
      clauses;
    let s =
      {
        nvars;
        clauses;
        watches;
        assign = Array.make nvars (-1);
        trail = Array.make nvars 0;
        trail_n = 0;
        qhead = 0;
        levels = 0;
        lim = Array.make (nvars + 1) 0;
        dec_lit = Array.make (nvars + 1) 0;
        flipped = Array.make (nvars + 1) false;
        dec_ub = Array.make (nvars + 1) 0;
        obj_w;
        achieved = 0;
        pending = !total;
        best_val = Float.neg_infinity;
        best_int = min_int / 2;
        best_wit = None;
        decisions = 0;
        propagations = 0;
        conflicts = 0;
        restarts = 0;
        since_check = 0;
      }
    in
    (* Warm start: a consistent hint becomes the initial incumbent. *)
    (match hint with
    | Some h when Array.length h = nvars && check problem h ->
      let v = value_of problem h in
      s.best_val <- v;
      s.best_int <- Int64.to_int (Int64.of_float (Float.floor (v *. scale_f)));
      s.best_wit <- Some (Array.copy h)
    | Some _ | None -> ());
    let root_unsat = ref false in
    List.iter
      (fun l ->
        if not !root_unsat then
          match lit_value s l with
          | 1 -> ()
          | 0 -> root_unsat := true
          | _ -> enqueue s l)
      !units;
    if !root_unsat || not (propagate s) then Error (unsat_error ())
    else begin
      let root_trail = s.trail_n in
      let check_deadline_now () =
        match budget with
        | None -> ()
        | Some b -> (
          match Guard.Budget.check b with
          | Guard.Budget.Exhausted e -> raise (Stop e)
          | Guard.Budget.Within | Guard.Budget.Node_pressure _ -> ())
      in
      let on_conflict () =
        s.conflicts <- s.conflicts + 1;
        s.since_check <- s.since_check + 1;
        (match budget with
        | None -> ()
        | Some b -> (
          match Guard.Budget.conflict_ceiling b with
          | Some c when s.conflicts >= c ->
            raise (Stop (Guard.Budget.exhausted_conflicts b ~conflicts:s.conflicts))
          | Some _ | None -> ()));
        if s.since_check >= 2048 then begin
          s.since_check <- 0;
          check_deadline_now ()
        end;
        if not (backtrack s) then raise Search_done
      in
      let stop_reason = ref None in
      (try
         while true do
           if s.since_check >= 8192 then begin
             s.since_check <- 0;
             check_deadline_now ()
           end;
           if not (propagate s) then on_conflict ()
           else if s.achieved + s.pending <= s.best_int then on_conflict ()
           else
             match pick_branch s problem with
             | Some l -> decide s l
             | None ->
               (* full assignment *)
               let v =
                 Array.fold_left
                   (fun acc (var, w) ->
                     if s.assign.(var) = 1 then acc +. w else acc)
                   0.0 problem.objective
               in
               if v > s.best_val then begin
                 s.best_val <- v;
                 s.best_int <-
                   Int64.to_int (Int64.of_float (Float.floor (v *. scale_f)));
                 s.best_wit <-
                   Some (Array.init nvars (fun i -> s.assign.(i) = 1));
                 s.restarts <- s.restarts + 1;
                 undo_to s root_trail;
                 s.levels <- 0
               end
               else on_conflict ()
         done
       with
      | Search_done -> ()
      | Stop e -> stop_reason := Some e);
      match (s.best_wit, !stop_reason) with
      | None, Some e -> Error e
      | None, None -> Error (unsat_error ())
      | Some w, None ->
        Ok { value = s.best_val; witness = w; proof = Optimal; stats = stats_of s }
      | Some w, Some e ->
        Ok
          {
            value = s.best_val;
            witness = w;
            proof = Bounded { upper = upper_bound s; reason = e };
            stats = stats_of s;
          }
    end
  end

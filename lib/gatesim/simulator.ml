type t = {
  circuit : Netlist.Circuit.t;
  loads : float array; (* per net, fF *)
}

let default_vdd = 3.3

let create ?output_load ?loads circuit =
  (* chaos-testing seam: inert unless a fault spec is armed and we are
     inside a supervised task (see Guard.Fault) *)
  Guard.Fault.inject "simulate";
  let loads =
    match loads with
    | Some loads ->
      if Array.length loads <> circuit.Netlist.Circuit.net_count then
        invalid_arg "Simulator.create: loads length must equal net count";
      Array.copy loads
    | None -> (
      match output_load with
      | None -> Netlist.Circuit.loads circuit
      | Some output_load -> Netlist.Circuit.loads ~output_load circuit)
  in
  { circuit; loads }

let circuit t = t.circuit
let loads t = t.loads

let eval t env = Netlist.Circuit.eval_all Netlist.Cell.bool_logic t.circuit env

let eval_outputs t env =
  Netlist.Circuit.eval_outputs Netlist.Cell.bool_logic t.circuit env

(* Zero-delay switched capacitance of the transition [before -> after]:
   the loads of gate-output nets with a rising transition (Eq. 2-3 of the
   paper; falling transitions discharge to ground and draw no supply
   current; primary-input nets are driven externally and not counted). *)
let switched_capacitance_of_values t before after =
  let n = Netlist.Circuit.input_count t.circuit in
  let total = ref 0.0 in
  for net = n to Array.length before - 1 do
    if (not before.(net)) && after.(net) then total := !total +. t.loads.(net)
  done;
  !total

(* --- the word-parallel kernel --------------------------------------

   Net values are held as [int] words, one pattern per bit ([lanes] =
   63 per word), and each gate is one bitwise expression over its input
   words.  A pattern's switched capacitance is charged net by net in
   ascending net order, starting from [0.0] — the order
   [switched_capacitance_of_values] adds in — so every per-pattern sum
   is bit-identical to the boolean reference. *)

let lanes = Sys.int_size

let rec conj w ins j acc =
  if j < 0 then acc else conj w ins (j - 1) (acc land w.(ins.(j)))

let rec disj w ins j acc =
  if j < 0 then acc else disj w ins (j - 1) (acc lor w.(ins.(j)))

(* Evaluate every gate over the word array [w], whose input words are
   already set. *)
let eval_words t w =
  Array.iter
    (fun { Netlist.Circuit.out; kind; ins } ->
      let last = Array.length ins - 1 in
      w.(out) <-
        (match kind with
        | Netlist.Cell.Const b -> if b then -1 else 0
        | Buf -> w.(ins.(0))
        | Inv -> lnot w.(ins.(0))
        | And _ -> conj w ins last (-1)
        | Nand _ -> lnot (conj w ins last (-1))
        | Or _ -> disj w ins last 0
        | Nor _ -> lnot (disj w ins last 0)
        | Xor -> w.(ins.(0)) lxor w.(ins.(1))
        | Xnor -> lnot (w.(ins.(0)) lxor w.(ins.(1)))
        | Mux ->
          (* ins = [| a; b; s |]: b where s is set, a elsewhere *)
          let s = w.(ins.(2)) in
          (s land w.(ins.(1))) lor (lnot s land w.(ins.(0)))))
    t.circuit.Netlist.Circuit.gates

(* Words of [w] for vectors [vec 0 .. vec (npat - 1)] of [block], lane
   k holding vector [vec k], then every gate evaluated. *)
let eval_lanes t w block vec npat =
  let n = Netlist.Circuit.input_count t.circuit in
  Array.fill w 0 n 0;
  for k = 0 to npat - 1 do
    let v = vec k in
    let bit = 1 lsl k in
    for i = 0 to n - 1 do
      if Stimulus.Block.get block v i then w.(i) <- w.(i) lor bit
    done
  done;
  eval_words t w

let check_width t block =
  let n = Netlist.Circuit.input_count t.circuit in
  if Stimulus.Block.width block <> n then
    invalid_arg
      (Printf.sprintf "Simulator: expected %d inputs, got %d" n
         (Stimulus.Block.width block))

(* Add the load of every gate output rising in lane k (< npat) to
   [out.(base + k)]; the after-value of lane k is lane [k + shift] of
   [after]. *)
let charge t ~before ~after ~shift out ~base npat =
  let mask = if npat >= lanes then -1 else (1 lsl npat) - 1 in
  for net = Netlist.Circuit.input_count t.circuit to Array.length before - 1 do
    let rising = ref (lnot before.(net) land (after.(net) lsr shift) land mask) in
    if !rising <> 0 then begin
      let load = t.loads.(net) in
      let k = ref base in
      while !rising <> 0 do
        if !rising land 0xff = 0 then begin
          rising := !rising lsr 8;
          k := !k + 8
        end
        else begin
          if !rising land 1 <> 0 then out.(!k) <- out.(!k) +. load;
          rising := !rising lsr 1;
          incr k
        end
      done
    end
  done

let switched_capacitance_block t block ends =
  check_width t block;
  let count = Array.length ends in
  Array.iter
    (fun j ->
      if j < 1 || j >= Stimulus.Block.length block then
        invalid_arg "Simulator.switched_capacitance_block: index out of range")
    ends;
  let out = Array.make count 0.0 in
  let nets = t.circuit.Netlist.Circuit.net_count in
  let before = Array.make nets 0 and after = Array.make nets 0 in
  let base = ref 0 in
  while !base < count do
    let b = !base in
    let npat = Int.min lanes (count - b) in
    eval_lanes t before block (fun k -> ends.(b + k) - 1) npat;
    eval_lanes t after block (fun k -> ends.(b + k)) npat;
    charge t ~before ~after ~shift:0 out ~base:b npat;
    base := b + npat
  done;
  out

let switched_capacitance t x_i x_f =
  let block =
    Stimulus.Block.of_bools
      ~width:(Netlist.Circuit.input_count t.circuit)
      [| x_i; x_f |]
  in
  (switched_capacitance_block t block [| 1 |]).(0)

let energy ?(vdd = default_vdd) t x_i x_f =
  vdd *. vdd *. switched_capacitance t x_i x_f

type run = {
  patterns : int;          (** number of transitions simulated *)
  average : float;         (** mean switched capacitance per transition, fF *)
  maximum : float;         (** largest switched capacitance observed, fF *)
  total : float;           (** sum over all transitions, fF *)
  per_pattern : float array;
}

(* A sequence shares endpoints: one word evaluation of [lanes]
   consecutive vectors gives [lanes - 1] transitions, lane k before and
   lane k + 1 after. *)
let run t vectors =
  let count = Array.length vectors in
  if count < 2 then invalid_arg "Simulator.run: need at least two vectors";
  let block =
    Stimulus.Block.of_bools
      ~width:(Netlist.Circuit.input_count t.circuit)
      vectors
  in
  let per_pattern = Array.make (count - 1) 0.0 in
  let values = Array.make t.circuit.Netlist.Circuit.net_count 0 in
  let base = ref 0 in
  while !base < count - 1 do
    let b = !base in
    let width = Int.min lanes (count - b) in
    eval_lanes t values block (fun k -> b + k) width;
    charge t ~before:values ~after:values ~shift:1 per_pattern ~base:b
      (width - 1);
    base := b + width - 1
  done;
  let total = ref 0.0 and maximum = ref 0.0 in
  Array.iter
    (fun c ->
      total := !total +. c;
      if c > !maximum then maximum := c)
    per_pattern;
  {
    patterns = count - 1;
    average = !total /. float_of_int (count - 1);
    maximum = !maximum;
    total = !total;
    per_pattern;
  }

let average_power ?(vdd = default_vdd) ~period run =
  (* femto-Farad * V^2 / s: returns femto-Joule / s when period is in s. *)
  vdd *. vdd *. run.average /. period

let worst_case_capacitance_exhaustive t =
  (* Exact worst case by enumerating all pairs of input vectors: O(4^n),
     usable only for small circuits (the infeasibility the paper notes). *)
  let n = Netlist.Circuit.input_count t.circuit in
  if n > 13 then
    invalid_arg
      "Simulator.worst_case_capacitance_exhaustive: too many inputs";
  let vec k = Array.init n (fun i -> (k lsr i) land 1 = 1) in
  let all_values = Array.init (1 lsl n) (fun k -> eval t (vec k)) in
  let best = ref 0.0 in
  Array.iter
    (fun before ->
      Array.iter
        (fun after ->
          let c = switched_capacitance_of_values t before after in
          if c > !best then best := c)
        all_values)
    all_values;
  !best

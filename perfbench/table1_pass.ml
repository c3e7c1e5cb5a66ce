(* The Table 1 pass of the traced layer suite: seven Table 1 rows
   through the paper's own flow (Experiments.Table1.run_entry at the
   paper's MAX bounds and default vector counts), each circuit entering
   as BLIF text, and the check of those rows. *)

open Common

let names = [ "decod"; "cm85"; "cm150"; "cmb"; "mux"; "x2"; "alu2" ]

(* Node counts of the finished models (average, upper bound).  They do
   not depend on the seed; a change here is a change of the DD results,
   not of speed. *)
let reference_nodes =
  [
    ("decod", (52, 52));
    ("cm85", (486, 462));
    ("cm150", (697, 723));
    ("cmb", (200, 985));
    ("mux", (999, 4821));
    ("x2", (200, 2492));
    ("alu2", (997, 4974));
  ]

type input = { entry : Circuits.Suite.entry; blif : string }

let inputs () =
  List.map
    (fun n ->
      let e = entry n in
      { entry = e; blif = Netlist.Blif.to_string (e.Circuits.Suite.build ()) })
    names

let parse i = ok_or_die ("parse " ^ i.entry.Circuits.Suite.name) (Netlist.Blif.parse i.blif)

(* The row a user reproduces: the circuit is imported from its BLIF text
   inside the row, like `cfpm import'. *)
let blif_entry i = { i.entry with Circuits.Suite.build = (fun () -> parse i) }

let config seed = { Experiments.Table1.default_config with seed }

(* The row minus its timings and its DD cache hit rate (which follows
   the netlist's gate numbering, not the model): byte-identical for a
   given seed. *)
let deterministic (r : Experiments.Table1.row) =
  match Experiments.Table1.row_to_json r with
  | Json.Obj members ->
    Json.to_string ~pretty:false
      (Json.Obj
         (List.filter
            (fun (k, _) ->
              not
                (List.mem k
                   [ "cpu_avg"; "build_wall_avg"; "cpu_ub"; "build_wall_ub"; "wall_seconds";
                     "cache_hit_rate" ]))
            members))
  | j -> Json.to_string ~pretty:false j

(* Importing the seven netlists, median of 9. *)
let parse_s ins =
  median_of (List.init 9 (fun _ -> snd (time (fun () -> List.iter (fun i -> ignore (parse i)) ins))))

let run_row p ins_entry =
  match Experiments.Table1.run_entry ~config:(config p.seed) ~jobs:p.jobs ins_entry with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

(* Every row must be fresh (no error), keep its node counts at the
   reference and within MAX, and match byte for byte the same row
   computed again on two worker domains (Table 1 results are
   bit-identical for every job count). *)
let check p tally ins rows =
  let reference =
    Parallel.Pool.map ~jobs:2
      (fun i ->
        ( i.entry.Circuits.Suite.name,
          deterministic
            (Experiments.Table1.run_entry ~config:(config p.seed) ~jobs:2 (blif_entry i)) ))
      ins
  in
  List.iter
    (fun (i, r) ->
      let name = i.entry.Circuits.Suite.name in
      match r with
      | Error msg -> Perfkit.Tally.fail tally (name ^ ": " ^ msg)
      | Ok row ->
        let avg, ub = List.assoc name reference_nodes in
        if row.Experiments.Table1.model_nodes <> avg || row.bound_nodes <> ub then
          Perfkit.Tally.fail tally
            (Printf.sprintf "%s: nodes %d/%d, reference %d/%d" name row.model_nodes
               row.bound_nodes avg ub)
        else if row.model_nodes > row.max_avg || row.bound_nodes > row.max_ub then
          Perfkit.Tally.fail tally (name ^ ": node count above MAX")
        else
          Perfkit.Tally.check tally ~what:name ~expected:(List.assoc name reference)
            (Ok (deterministic row)))
    rows

(* Build-free time of a row: import, characterization of Con/Lin and the
   gate-level validation sweep. *)
let validate_s rows =
  List.fold_left
    (fun acc (_, r) ->
      match r with
      | Ok row ->
        acc +. row.Experiments.Table1.wall_seconds -. row.build_wall_avg -. row.build_wall_ub
      | Error _ -> acc)
    0.0 rows

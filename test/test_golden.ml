(* Golden replay of the analytic queries: expectation on a fixed (sp, st)
   grid, the worst-case value and witness, and the toggle sensitivities of
   the six tractable Table 1 circuits, exact and at MAX 500 (upper-bound
   strategy), under every reorder policy.  Floats are stored as their
   IEEE-754 bit patterns, so a replay checks every answer bit for bit. *)

let circuits = [ "decod"; "x2"; "alu2"; "cm85"; "cmb"; "cm150" ]
let builds = [ ("exact", None); ("max500", Some 500) ]

let grid =
  [ (0.5, 0.5); (0.5, 0.05); (0.5, 0.9); (0.2, 0.3); (0.8, 0.1); (0.3, 0.6) ]

let hex f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)
let bits v = String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

type answers = {
  expectation : sp:float -> st:float -> float;
  worst : unit -> bool array * bool array * float;
  sensitivities : unit -> float array;
}

let lines key a =
  List.map
    (fun (sp, st) ->
      Printf.sprintf "%s exp %g %g %s" key sp st (hex (a.expectation ~sp ~st)))
    grid
  @ [
      (let x_i, x_f, v = a.worst () in
       Printf.sprintf "%s worst %s %s %s" key (hex v) (bits x_i) (bits x_f));
      String.concat " "
        ((key ^ " sens") :: Array.to_list (Array.map hex (a.sensitivities ())));
    ]

let of_model m =
  {
    expectation = Powermodel.Analysis.expected_capacitance m;
    worst = (fun () -> Powermodel.Analysis.worst_case_transition m);
    sensitivities = (fun () -> Powermodel.Analysis.toggle_sensitivities m);
  }

let build name (_, max_size) policy =
  let entry = Option.get (Circuits.Suite.find name) in
  Powermodel.Model.build ~reorder:policy ?max_size
    ~strategy:Dd.Approx.Upper_bound (entry.Circuits.Suite.build ())

let key name (b, _) policy =
  Printf.sprintf "%s %s %s" name b (Powermodel.Reorder.to_string policy)

let cases =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun b -> List.map (fun p -> (n, b, p)) Powermodel.Reorder.all)
        builds)
    circuits

(* ------------------------------------------------------------------ *)
(* Replay.  The golden file was captured from the ADD-walking analyses;
   every route must reproduce it: the Model.t entry points, a fresh
   compile's program, the program of a compiled-only store load (what a
   server answers from) and the model a full store load rebuilds. *)

let of_compiled c =
  {
    expectation = Powermodel.Analysis.expected_capacitance_compiled c;
    worst = (fun () -> Powermodel.Analysis.worst_case_transition_compiled c);
    sensitivities =
      (fun () -> Powermodel.Analysis.toggle_sensitivities_compiled c);
  }

(* A store round trip: the compiled-only load (what a server holds) and
   the model [Store.load] rebuilds from the same artifact. *)
let stored model =
  let path = Filename.temp_file "cfpm_golden" ".cfpm" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let ok = function Ok v -> v | Error e -> failwith (Guard.Error.to_string e) in
  ignore (ok (Store.save ~path model) : Store.meta);
  ( (ok (Store.load_compiled path)).Store.compiled,
    (ok (Store.load path)).Store.model )

let routes (n, b, p) =
  let m = build n b p in
  let k = key n b p in
  let compiled, rebuilt = stored m in
  [
    ("model", lines k (of_model m));
    ("compiled", lines k (of_compiled (Powermodel.Model.compile m)));
    ("stored", lines k (of_compiled compiled));
    ("rebuilt", lines k (of_model rebuilt));
  ]

let replay () =
  let golden =
    In_channel.with_open_text "analysis.golden" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let per_case = Parallel.Pool.map ~jobs:2 routes cases in
  List.iter
    (fun route ->
      Alcotest.(check (list string))
        route golden
        (List.concat_map (List.assoc route) per_case))
    [ "model"; "compiled"; "stored"; "rebuilt" ]

let suite =
  [ Alcotest.test_case "analysis answers replay the golden file" `Slow replay ]

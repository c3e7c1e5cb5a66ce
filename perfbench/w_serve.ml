(* Workloads `serve' and `query': a `cfpm serve --jobs 1' child on a Unix
   socket, driven by closed-loop connections from this process.  Every
   answer must be byte-identical to Serve.Handler.handle_string run in
   process on the same artifact and request bytes. *)

open Common

let workers = 2

(* --- set-up ------------------------------------------------------- *)

type server = {
  child : Perfkit.Proc.child;
  dir : string;  (* the store root the server resolves models under *)
  socket : string;
}

let address s = `Unix s.socket

let start_server ?(trace = false) ?cache_mb dir =
  let socket = Filename.concat dir "s.sock" in
  let args =
    [ "serve"; "--socket"; socket; "--models"; dir; "--jobs"; "1"; "--workers";
      string_of_int workers ]
    @ (match cache_mb with Some mb -> [ "--cache-mb"; string_of_int mb ] | None -> [])
    @ if trace then [ "--trace"; Filename.concat dir "trace.json" ] else []
  in
  let child = Perfkit.Proc.spawn cfpm_exe args in
  match Perfkit.Proc.wait_for child ~ready:"listening on" ~timeout:60.0 with
  | Ok () -> { child; dir; socket }
  | Error msg ->
    ignore (Perfkit.Proc.stop child);
    failwith ("cfpm serve: " ^ msg)

let stop_server s = ignore (Perfkit.Proc.stop s.child)

let server_trace s =
  let path = Filename.concat s.dir "trace.json" in
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Result.to_option (Json.of_string text)
  | exception Sys_error _ -> None

let request_ok s json =
  match Serve.Client.with_connection (address s) (fun c -> Serve.Client.request c json) with
  | Ok resp when Serve.Protocol.response_error resp = None -> resp
  | Ok resp -> failwith ("set-up request failed: " ^ Serve.Protocol.render resp)
  | Error e -> failwith ("set-up request failed: " ^ Guard.Error.to_string e)

let meta_request model = Json.Obj [ ("id", Json.Int 0); ("op", Json.String "meta"); ("model", Json.String model) ]

(* One set-up as a user pays it: build the models, save the artifacts,
   start the server, and load every artifact once through it. *)
let setup_once ?trace ~models ~cache_mb name =
  let dir = fresh_dir name in
  time (fun () ->
      let metas =
        List.map
          (fun (file, build) ->
            ok_or_die "save" (Store.save ~path:(Filename.concat dir file) (build ())))
          models
      in
      let s = start_server ?trace ?cache_mb:(Option.map (fun f -> f metas) cache_mb) dir in
      List.iter (fun (file, _) -> ignore (request_ok s (meta_request file))) models;
      s)

(* [reps] set-ups; the last server stays up for the window. *)
let setup ?(reps = setup_reps) ?trace ~models ?cache_mb name =
  let rec go k acc =
    let s, dt = setup_once ?trace ~models ~cache_mb (Printf.sprintf "%s-%d" name k) in
    if k + 1 < reps then begin
      stop_server s;
      go (k + 1) (dt :: acc)
    end
    else (s, median_of (dt :: acc))
  in
  go 0 []

(* --- decks -------------------------------------------------------- *)

let reference_handler dir =
  Serve.Handler.create ~jobs:1 ~resolve_circuit (Serve.Cache.create ~root:dir ())

(* The deck: each request with its in-process reference answer.  A
   reference that is an error response is kept, and every send of that
   request then counts as a failed operation (Perfkit.Loadgen.check). *)
let deck_of dir requests =
  let h = reference_handler dir in
  Array.of_list
    (List.map
       (fun (what, json) ->
         let bytes = Serve.Protocol.render json in
         Perfkit.Loadgen.request ~what ~bytes ~expected:(Serve.Handler.handle_string h bytes))
       requests)

let bits prng n = String.init n (fun _ -> if Stimulus.Prng.bool prng ~p:0.5 then '1' else '0')

(* serve: eval_batch requests of 4096 transitions against the collapsed
   cm85 model. *)
let batch_transitions = 4096
let batch_requests = 8
let serve_model = "cm85.cfpm"

let serve_models =
  [ (serve_model, fun () -> Powermodel.Model.build ~max_size:(entry "cm85").Circuits.Suite.max_avg ((entry "cm85").build ())) ]

let batch_request prng ~inputs id =
  ( Printf.sprintf "eval_batch#%d" id,
    Json.Obj
      [
        ("id", Json.Int id);
        ("op", Json.String "eval_batch");
        ("model", Json.String serve_model);
        ( "transitions",
          Json.List
            (List.init batch_transitions (fun _ ->
                 Json.List [ Json.String (bits prng inputs); Json.String (bits prng inputs) ])) );
      ] )

let serve_requests seed =
  let prng = Stimulus.Prng.create (seed * 7919 + 1) in
  let inputs = Netlist.Circuit.input_count ((entry "cm85").build ()) in
  List.init batch_requests (fun id -> batch_request prng ~inputs (id + 1))

(* query: a seeded mix of analytic requests against exact artifacts. *)
let query_circuits = [ "decod"; "x2"; "alu2"; "cm85"; "cmb"; "cm150" ]

let query_models =
  List.map
    (fun n -> (n ^ ".cfpm", fun () -> Powermodel.Model.build ((entry n).Circuits.Suite.build ())))
    query_circuits

(* The mix is the request list of the CI serve-smoke job: per circuit,
   meta 1, eval 1, expectation 2, worst 2 (here one `add' and one `pbo')
   and sensitivities 2.  Its ping and eval_batch are left out; eval_batch
   is the serve workload. *)
let smoke_round =
  [ "meta"; "eval"; "expectation"; "expectation"; "worst_add"; "worst_pbo"; "sensitivities";
    "sensitivities" ]

(* Shapes whose answer from a resident model takes over 100 ms on a
   2-core x86 host are left out: x2 expectation (about 300 ms), x2
   sensitivities (1.4 s), and the sensitivities of alu2, cm85 and cm150
   (310, 200 and 110 ms).  With them a deck costs seconds, and a 15 s
   window could not hold the 1000 answers p99 needs. *)
let too_slow =
  [ ("x2", "expectation"); ("x2", "sensitivities"); ("alu2", "sensitivities");
    ("cm85", "sensitivities"); ("cm150", "sensitivities") ]

let round c = List.filter_map (fun k -> if List.mem (c, k) too_slow then None else Some (k, c)) smoke_round

(* One pass over the shapes: the rounds of the five small circuits in
   turn, with x2's requests dealt one between each two rounds.  x2 is
   then never the least recently used artifact, so under the cache
   ceiling below it stays resident, and each small artifact reloads
   through Store.load once per pass (5 of 38 requests).  Reloading x2
   instead, about 0.5 s each time, would take half the server time and
   hide the Analysis and PBO costs in queries_per_s. *)
let query_shapes =
  let rec deal rounds x2 =
    match (rounds, x2) with
    | r :: rs, x :: xs -> r @ [ x ] @ deal rs xs
    | r :: rs, [] -> r @ deal rs []
    | [], xs -> xs
  in
  deal (List.map round [ "decod"; "alu2"; "cm85"; "cmb"; "cm150" ]) (round "x2")

(* The ceiling is the largest whole MiB below the artifacts' total
   (30 of 30.1 MiB): the six cannot all stay resident. *)
let query_cache_mb metas =
  let total = List.fold_left (fun acc m -> acc + Store.approx_bytes m) 0 metas in
  max 1 ((total - 1) / (1024 * 1024))

(* The deck is [query_passes] passes over the shapes, each with fresh
   arguments drawn from the seed (eval bits, expectation (sp, st)); the
   shapes and their order are the same on every seed.  An expectation's
   cost follows its (sp, st), alu2's from 30 to 50 ms and cmb's from 1
   to 11 ms, so one draw per shape would let the seed move queries/s
   and p50; ten draws average that out. *)
let query_passes = 10

let query_requests seed =
  let prng = Stimulus.Prng.create (seed * 104729 + 3) in
  let inputs = List.map (fun n -> (n, Netlist.Circuit.input_count ((entry n).build ()))) query_circuits in
  List.mapi
    (fun i (kind, circuit) ->
      let id = i + 1 in
      let base op =
        [ ("id", Json.Int id); ("op", Json.String op); ("model", Json.String (circuit ^ ".cfpm")) ]
      in
      let members =
        match kind with
        | "eval" ->
          let n = List.assoc circuit inputs in
          base "eval" @ [ ("x_i", Json.String (bits prng n)); ("x_f", Json.String (bits prng n)) ]
        | "expectation" ->
          let sp = 0.05 +. (0.9 *. Stimulus.Prng.float prng) in
          let st = Stimulus.Generator.feasible_st ~sp (0.05 +. (0.9 *. Stimulus.Prng.float prng)) in
          base "expectation" @ [ ("sp", Json.Float sp); ("st", Json.Float st) ]
        | "worst_add" -> base "worst" @ [ ("method", Json.String "add") ]
        | "worst_pbo" -> base "worst" @ [ ("method", Json.String "pbo") ]
        | op -> base op
      in
      (Printf.sprintf "%s#%d %s" kind id circuit, Json.Obj members))
    (List.concat (List.init query_passes (fun _ -> query_shapes)))

(* --- windows ------------------------------------------------------ *)

(* The window must leave at least ten latencies beyond p99, so it runs
   past [seconds] when the server is slower than that needs. *)
let p99_samples = Perfkit.Stat.samples_needed ~p:99.0 ~k:10

let load_window ?(min_samples = p99_samples) s ~connections ~seconds ~per_request tally deck =
  let r =
    Perfkit.Loadgen.run ~address:(address s) ~connections ~seconds ~min_samples tally deck
  in
  {
    items_per_s =
      float_of_int (per_request * Array.length r.Perfkit.Loadgen.latencies_ms) /. r.elapsed_s;
    latencies_ms = r.latencies_ms;
    rss_mb = Option.value (Perfkit.Proc.peak_rss_mb (Some s.child.Perfkit.Proc.pid)) ~default:0.0;
  }

type kind = Serve | Query

type spec = {
  name : string;
  models : (string * (unit -> Powermodel.Model.t)) list;
  cache_mb : (Store.meta list -> int) option;
  requests : int -> (string * Json.t) list;
  per_request : int;  (* items one answer counts for *)
  connections : int;
  reps : int;  (* set-ups per run *)
}

(* [serve] runs two connections: with one, the client's own turn
   between requests left the server idle for a varying share of the
   window and transitions/s spread by 30% between runs.  [query] runs
   one: its requests differ in cost by four orders of magnitude, and
   behind a second connection every cheap one would wait a random part
   of the runtime's 50 ms thread tick.  The traced run measures that
   wait (serve.wait_ms, serve.query_wait_ms). *)
let spec = function
  | Serve ->
    { name = "serve"; models = serve_models; cache_mb = None; requests = serve_requests;
      per_request = batch_transitions; connections = 2; reps = setup_reps }
  | Query ->
    { name = "query"; models = query_models; cache_mb = Some query_cache_mb;
      requests = query_requests; per_request = 1; connections = 1; reps = long_setup_reps }

(* The whole workload; returns the stopped server too, whose directory
   holds its trace when [trace] is set. *)
let run_full ?reps ?(trace = false) ?seconds ?min_samples kind p =
  let sp = spec kind in
  let reps = Option.value reps ~default:sp.reps in
  let seconds = Option.value seconds ~default:p.seconds in
  let s, setup_s = setup ~reps ~trace ~models:sp.models ?cache_mb:sp.cache_mb sp.name in
  Fun.protect
    ~finally:(fun () -> stop_server s)
    (fun () ->
      let deck = deck_of s.dir (sp.requests p.seed) in
      let tally = Perfkit.Tally.create () in
      let window =
        load_window ?min_samples s ~connections:sp.connections ~seconds
          ~per_request:sp.per_request tally deck
      in
      ({ setup_s; window; tally }, s))

let run kind p = fst (run_full kind p)

(* Transport-free request dispatch.

   Everything the server does to a request happens here, behind a fault
   boundary: parse, budget, model lookup, evaluation, response shaping.
   Keeping the transport out means the exact same bytes come back from a
   socket round trip and from local evaluation (cfpm store query), which
   is what lets the chaos CI compare a fault-injected server's healthy
   answers byte-for-byte against a fault-free reference. *)

let m_requests = Obs.Metrics.metric "serve.requests"
let m_errors = Obs.Metrics.metric "serve.errors"

type t = {
  cache : Cache.t;
  jobs : int option;
  deadline : float option;
  resolve_circuit : (string -> Netlist.Circuit.t option) option;
  requests : int Atomic.t;
  errors : int Atomic.t;
}

let create ?jobs ?deadline ?resolve_circuit cache =
  (match deadline with
  | Some d when (not (Float.is_finite d)) || d <= 0.0 ->
    invalid_arg "Handler.create: deadline must be finite and > 0"
  | _ -> ());
  {
    cache;
    jobs;
    deadline;
    resolve_circuit;
    requests = Atomic.make 0;
    errors = Atomic.make 0;
  }

let cache t = t.cache

(* ------------------------------------------------------------------ *)
(* Request parsing helpers — every failure is a classified error.       *)

let ( let* ) = Result.bind

let req_string req k =
  match Json.member k req with
  | Some (Json.String s) -> Ok s
  | _ ->
    Error
      (Guard.Error.validation
         (Printf.sprintf "request lacks a string %S member" k))

let bits_error ~inputs k s =
  Guard.Error.validation ~context:[ (k, s) ]
    (Printf.sprintf "%s must be a %d-bit string of 0s and 1s" k inputs)

let req_bits req ~inputs k =
  let* s = req_string req k in
  if String.length s = inputs && String.for_all (fun c -> c = '0' || c = '1') s
  then Ok (Array.init inputs (fun i -> s.[i] = '1'))
  else Error (bits_error ~inputs k s)

let string_of_bits v =
  String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

let opt_prob req k ~default =
  match Json.member k req with
  | None | Some Json.Null -> Ok default
  | Some j -> (
    match Json.to_float j with
    | Some v when Float.is_finite v && v >= 0.0 && v <= 1.0 -> Ok v
    | _ ->
      Error
        (Guard.Error.validation
           (Printf.sprintf "%s must be a probability in [0, 1]" k)))

(* ------------------------------------------------------------------ *)
(* Deadline budget: created per request, enforced at operation seams.   *)

let default_budget t =
  Option.map (fun d -> Guard.Budget.create ~wall_seconds:d ()) t.deadline

let budget_of t req =
  match Json.member "deadline_ms" req with
  | None | Some Json.Null -> Ok (default_budget t)
  | Some j -> (
    match Json.to_float j with
    | Some ms when Float.is_finite ms && ms >= 0.0 ->
      Ok (Some (Guard.Budget.create ~wall_seconds:(ms /. 1000.0) ()))
    | _ ->
      Error
        (Guard.Error.validation
           "deadline_ms must be a finite non-negative number"))

let check_budget = function
  | None -> Ok ()
  | Some b -> (
    match Guard.Budget.check b with
    | Guard.Budget.Within | Guard.Budget.Node_pressure _ -> Ok ()
    | Guard.Budget.Exhausted e ->
      Error (Guard.Error.with_context [ ("reason", "deadline") ] e))

(* ------------------------------------------------------------------ *)
(* Operations.                                                          *)

let model t req =
  let* name = req_string req "model" in
  Cache.find_or_load t.cache name

let op_eval t req check =
  let* entry = model t req in
  let meta = entry.Cache.loaded.Store.meta in
  let* x_i = req_bits req ~inputs:meta.Store.inputs "x_i" in
  let* x_f = req_bits req ~inputs:meta.Store.inputs "x_f" in
  let* () = check () in
  Ok
    (Json.Float
       (Powermodel.Model.switched_capacitance_compiled
          entry.Cache.loaded.Store.compiled ~x_i ~x_f))

(* Batches evaluate in fixed blocks with a budget check between blocks,
   so a deadline can interrupt a large batch at a block seam; within a
   block the pool-sharded evaluator runs to completion.  Each block's
   leaf indices go to [emit] in block order — byte-identical for every
   job count.  Both eval_batch routes run this loop. *)
let eval_block = 4096

let eval_blocks t program packed ~total check emit =
  let stride = Dd.Compiled.vars program in
  let rec go i =
    if i >= total then Ok ()
    else
      let* () = check () in
      let n = min eval_block (total - i) in
      (* a one-block batch is evaluated in place, not copied *)
      let inputs =
        if n = total then packed else Bytes.sub packed (i * stride) (n * stride)
      in
      emit (Dd.Compiled.eval_batch_leaves ?jobs:t.jobs program ~inputs ~n);
      go (i + n)
  in
  go 0

let op_eval_batch t req check =
  let* entry = model t req in
  let inputs = entry.Cache.loaded.Store.meta.Store.inputs in
  let program =
    Powermodel.Model.compiled_program entry.Cache.loaded.Store.compiled
  in
  let stride = Dd.Compiled.vars program in
  let* transitions =
    match Json.member "transitions" req with
    | Some (Json.List l) -> Ok l
    | _ -> Error (Guard.Error.validation "request lacks a transitions list")
  in
  (* Every pair is checked, x_i first, before any block runs.  Byte 2j of
     a slot is x_i[j], 2j+1 is x_f[j].  '0'/'1' are 0x30/0x31, so [c lor 1
     = 0x31] checks a character and [c land 1] is its bit, branch-free. *)
  let total = List.length transitions in
  let packed = Bytes.create (total * stride) in
  let put at k s =
    let bad = ref (String.length s lxor inputs) in
    if !bad = 0 then
      for j = 0 to inputs - 1 do
        let c = Char.code (String.unsafe_get s j) in
        bad := !bad lor ((c lor 1) lxor 0x31);
        Bytes.set packed (at + (2 * j)) (Char.unsafe_chr (c land 1))
      done;
    if !bad = 0 then Ok () else Error (bits_error ~inputs k s)
  in
  let rec fill at = function
    | [] -> Ok ()
    | Json.List [ Json.String a; Json.String b ] :: rest ->
      let* () = put at "x_i" a in
      let* () = put (at + 1) "x_f" b in
      fill (at + stride) rest
    | _ :: _ ->
      Error
        (Guard.Error.validation
           "transitions must be a list of [x_i, x_f] bitstring pairs")
  in
  let* () = fill 0 transitions in
  let leaves = (Dd.Compiled.to_repr program).Dd.Compiled.r_leaves in
  let acc = ref [] in
  let* () =
    eval_blocks t program packed ~total check (fun idx ->
        acc := Array.fold_left (fun l k -> Json.Float leaves.(k) :: l) !acc idx)
  in
  Ok (Json.List (List.rev !acc))

let op_expectation t req check =
  let* entry = model t req in
  let meta = entry.Cache.loaded.Store.meta in
  let* sp = opt_prob req "sp" ~default:meta.Store.default_sp in
  let* st = opt_prob req "st" ~default:meta.Store.default_st in
  let* () = check () in
  Ok
    (Json.Float
       (Powermodel.Analysis.expected_capacitance_compiled
          entry.Cache.loaded.Store.compiled ~sp ~st))

let worst_json ~method_ (r : Powermodel.Adversarial.result_) =
  Json.Obj
    [
      ("x_i", Json.String (string_of_bits r.Powermodel.Adversarial.x_i));
      ("x_f", Json.String (string_of_bits r.Powermodel.Adversarial.x_f));
      ("value", Json.Float r.Powermodel.Adversarial.value);
      ("method", Json.String method_);
      ("optimal", Json.Bool r.Powermodel.Adversarial.optimal);
      ("upper", Json.Float r.Powermodel.Adversarial.upper);
    ]

let worst_method req =
  match Json.member "method" req with
  | None | Some Json.Null | Some (Json.String "add") -> Ok `Add
  | Some (Json.String "pbo") -> Ok `Pbo
  | Some (Json.String "both") -> Ok `Both
  | Some _ ->
    Error
      (Guard.Error.validation "method must be \"add\", \"pbo\" or \"both\"")

let worst_add entry =
  Powermodel.Adversarial.worst_add_compiled entry.Cache.loaded.Store.compiled

(* The PBO route needs the netlist, which the artifact does not carry —
   only its circuit name.  The resolver maps the name back to a
   [Netlist.Circuit.t]; the solve runs under the request's deadline
   budget, passed explicitly. *)
let worst_pbo t entry budget =
  let name = entry.Cache.loaded.Store.meta.Store.circuit in
  match t.resolve_circuit with
  | None ->
    Error
      (Guard.Error.validation
         "this server has no circuit resolver; only method \"add\" is \
          available")
  | Some resolve -> (
    match resolve name with
    | None ->
      Error
        (Guard.Error.validation
           ~context:[ ("circuit", name) ]
           "the artifact's circuit is unknown to this server")
    | Some circuit -> Powermodel.Adversarial.worst_pbo ?budget circuit)

let op_worst t req budget check =
  let* entry = model t req in
  let* method_ = worst_method req in
  let* () = check () in
  match method_ with
  | `Add -> Ok (worst_json ~method_:"add" (worst_add entry))
  | `Pbo ->
    let* r = worst_pbo t entry budget in
    Ok (worst_json ~method_:"pbo" r)
  | `Both ->
    let a = worst_add entry in
    let* p = worst_pbo t entry budget in
    let comparable =
      a.Powermodel.Adversarial.optimal && p.Powermodel.Adversarial.optimal
    in
    let agree =
      if comparable then
        Float.equal a.Powermodel.Adversarial.value
          p.Powermodel.Adversarial.value
      else
        p.Powermodel.Adversarial.value <= a.Powermodel.Adversarial.upper
    in
    Ok
      (Json.Obj
         [
           ("method", Json.String "both");
           ("comparable", Json.Bool comparable);
           ("agree", Json.Bool agree);
           ("add", worst_json ~method_:"add" a);
           ("pbo", worst_json ~method_:"pbo" p);
         ])

let op_sensitivities t req check =
  let* entry = model t req in
  let* () = check () in
  let sens =
    Powermodel.Analysis.toggle_sensitivities_compiled
      entry.Cache.loaded.Store.compiled
  in
  Ok (Json.List (Array.to_list (Array.map (fun v -> Json.Float v) sens)))

let op_meta t req check =
  let* entry = model t req in
  let* () = check () in
  Ok (Store.meta_json entry.Cache.loaded.Store.meta)

let op_stats t =
  Ok
    (Json.Obj
       [
         ("requests", Json.Int (Atomic.get t.requests));
         ("errors", Json.Int (Atomic.get t.errors));
         ("cache", Cache.stats t.cache);
       ])

let dispatch t req =
  let* op = req_string req "op" in
  let* budget = budget_of t req in
  let check () = check_budget budget in
  match op with
  | "ping" -> Ok (Json.String "pong")
  | "stats" -> op_stats t
  | "meta" -> op_meta t req check
  | "eval" -> op_eval t req check
  | "eval_batch" -> op_eval_batch t req check
  | "expectation" -> op_expectation t req check
  | "worst" -> op_worst t req budget check
  | "sensitivities" -> op_sensitivities t req check
  | "stream" ->
    (* live telemetry snapshots of every pipeline this process runs;
       reads are lock-ordered so a publisher never deadlocks us *)
    Ok (Stream.Registry.snapshot ())
  | other ->
    Error
      (Guard.Error.validation
         ~context:[ ("op", other) ]
         (Printf.sprintf "unknown operation %S" other))

(* ------------------------------------------------------------------ *)
(* The fault boundary.                                                  *)

(* Injection decisions are keyed on what the client sent — the op,
   model and id members as rendered — so a scripted chaos run fails the
   same requests whatever worker, connection or ordering served them. *)
let request_key ~op ~model ~id = String.concat "|" [ op; model; id ]

(* Counters, the fault key, the [serve_request] seam, exception
   classification and error shaping, for both routes: [run]'s result,
   or the finished error response. *)
let guarded t ~key ~id run =
  Atomic.incr t.requests;
  Obs.Metrics.incr m_requests;
  let result =
    try
      Guard.Fault.with_task ~key ~attempt:0 (fun () ->
          let* () =
            (* chaos seam: a mid-request fault, deterministic per key *)
            match Guard.Fault.inject "serve_request" with
            | () -> Ok ()
            | exception Guard.Error.Guarded e -> Error e
          in
          run ())
    with e -> Error (Guard.Error.of_exn e)
  in
  match result with
  | Ok r -> Ok r
  | Error e ->
    Atomic.incr t.errors;
    Obs.Metrics.incr m_errors;
    Error (Protocol.error_response ~id e)

let handle t req =
  let part k =
    match Json.member k req with Some j -> Protocol.render j | None -> ""
  in
  let key = request_key ~op:(part "op") ~model:(part "model") ~id:(part "id") in
  let id = Option.value (Json.member "id" req) ~default:Json.Null in
  match guarded t ~key ~id (fun () -> dispatch t req) with
  | Ok r -> Protocol.ok_response ~id r
  | Error response -> response

(* ------------------------------------------------------------------ *)
(* The canonical eval_batch frame, answered without a JSON tree.

   [Protocol.render] of an eval_batch request in its documented member
   order is [{"id":N,"op":"eval_batch","model":"M","transitions":[["B",
   "B"],...]}]: no whitespace, an int id, a model name needing no escape,
   and here at least one pair of bitstrings all of one width.  [scan]
   recognizes exactly that text, without side effects; [None] sends the
   frame down the generic route, which answers it the same way. *)

type canonical = {
  id : int;
  model : string;
  first : int;  (** offset of the first pair's '[' *)
  count : int;  (** pairs *)
  width : int;  (** characters per bitstring *)
}

let scan s =
  let n = String.length s in
  let at i lit =
    let k = String.length lit in
    i >= 0 && i + k <= n && String.equal (String.sub s i k) lit
  in
  let rec span i ok =
    if i < n && ok (String.unsafe_get s i) then span (i + 1) ok else i
  in
  let head = "{\"id\":" in
  if not (at 0 head) then None
  else
    let i0 = String.length head in
    let i1 =
      span (if at i0 "-" then i0 + 1 else i0) (fun c -> c >= '0' && c <= '9')
    in
    let id_text = String.sub s i0 (i1 - i0) in
    match int_of_string_opt id_text with
    | Some id when String.equal (string_of_int id) id_text ->
      let op = ",\"op\":\"eval_batch\",\"model\":\"" in
      if not (at i1 op) then None
      else
        let m0 = i1 + String.length op in
        let m1 =
          span m0 (fun c -> c >= ' ' && c <= '~' && c <> '"' && c <> '\\')
        in
        let tr = "\",\"transitions\":[" in
        if not (at m1 tr) then None
        else
          let first = m1 + String.length tr in
          let width =
            span (first + 2) (fun c -> c = '0' || c = '1') - (first + 2)
          in
          (* a pair is ["B","B"] and a ',' separator; the last pair has
             none, and the frame closes with "]}" *)
          let pair = (2 * width) + 8 in
          let body = n - 1 - first in
          let count = body / pair in
          if count < 1 || body mod pair <> 0 || not (at (n - 2) "]}") then None
          else begin
            let bad = ref 0 in
            let expect i c =
              let d = Char.code (String.unsafe_get s i) lxor Char.code c in
              bad := !bad lor d
            in
            let bits i =
              for j = i to i + width - 1 do
                let c = Char.code (String.unsafe_get s j) in
                bad := !bad lor ((c lor 1) lxor 0x31)
              done
            in
            for k = 0 to count - 1 do
              let a = first + (k * pair) in
              expect a '[';
              expect (a + 1) '"';
              bits (a + 2);
              expect (a + width + 2) '"';
              expect (a + width + 3) ',';
              expect (a + width + 4) '"';
              bits (a + width + 5);
              expect (a + (2 * width) + 5) '"';
              expect (a + (2 * width) + 6) ']';
              if k < count - 1 then expect (a + (2 * width) + 7) ','
            done;
            if !bad <> 0 then None
            else
              let model = String.sub s m0 (m1 - m0) in
              Some { id; model; first; count; width }
          end
    | _ -> None

(* The response text [Protocol.render (ok_response ...)] would produce,
   written once into a buffer of its exact length. *)
let render_batch ~id text blocks =
  let head = "{\"id\":" ^ string_of_int id ^ ",\"ok\":true,\"result\":[" in
  let items =
    List.fold_left
      (Array.fold_left (fun acc k -> acc + String.length text.(k) + 1))
      0 blocks
  in
  (* the last item's ',' slot holds the ']' of "]}" *)
  let b = Bytes.create (String.length head + items + 1) in
  Bytes.blit_string head 0 b 0 (String.length head);
  let pos = ref (String.length head) in
  List.iter
    (Array.iter (fun k ->
         let str = text.(k) in
         Bytes.blit_string str 0 b !pos (String.length str);
         Bytes.set b (!pos + String.length str) ',';
         pos := !pos + String.length str + 1))
    blocks;
  Bytes.blit_string "]}" 0 b (!pos - 1) 2;
  Bytes.unsafe_to_string b

(* '0'/'1' are 0x30/0x31: the low bit is the bit.  [scan] checked every
   character, so this reads inside [s]. *)
let bit s i = Char.unsafe_chr (Char.code (String.unsafe_get s i) land 1)

let eval_canonical t s c =
  let budget = default_budget t in
  let check () = check_budget budget in
  let* entry = Cache.find_or_load t.cache c.model in
  let inputs = entry.Cache.loaded.Store.meta.Store.inputs in
  if c.width <> inputs then
    Error (bits_error ~inputs "x_i" (String.sub s (c.first + 2) c.width))
  else begin
    let program =
      Powermodel.Model.compiled_program entry.Cache.loaded.Store.compiled
    in
    let stride = Dd.Compiled.vars program in
    let packed = Bytes.create (c.count * stride) in
    let pair = (2 * inputs) + 8 in
    for k = 0 to c.count - 1 do
      let x_i = c.first + (k * pair) + 2 and at = k * stride in
      let x_f = x_i + inputs + 3 in
      for j = 0 to inputs - 1 do
        Bytes.unsafe_set packed (at + (2 * j)) (bit s (x_i + j));
        Bytes.unsafe_set packed (at + (2 * j) + 1) (bit s (x_f + j))
      done
    done;
    let text = Cache.leaf_text entry in
    let blocks = ref [] in
    let* () =
      eval_blocks t program packed ~total:c.count check (fun idx ->
          blocks := idx :: !blocks)
    in
    Ok (render_batch ~id:c.id text (List.rev !blocks))
  end

let handle_string t s =
  match scan s with
  | Some c -> (
    (* a canonical model name renders as itself between quotes *)
    let key =
      request_key ~op:"\"eval_batch\"" ~model:("\"" ^ c.model ^ "\"")
        ~id:(string_of_int c.id)
    in
    match
      guarded t ~key ~id:(Json.Int c.id) (fun () -> eval_canonical t s c)
    with
    | Ok text -> text
    | Error response -> Protocol.render response)
  | None -> (
    match Json.of_string s with
    | Ok req -> Protocol.render (handle t req)
    | Error msg ->
      Protocol.render
        (Protocol.error_response ~id:Json.Null
           (Guard.Error.parse
              ~context:[ ("reason", "bad-request") ]
              (Printf.sprintf "request is not valid JSON: %s" msg))))

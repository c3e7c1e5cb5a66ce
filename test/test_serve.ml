(* The power-query service: protocol round trips, byte-identity with
   local evaluation, backpressure shedding, deadlines, fault injection,
   corrupt artifacts and graceful drain — the server must answer or shed,
   never crash, never lie. *)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Guard.Error.to_string e)

let temp_dir () =
  let d = Filename.temp_file "cfpm_serve" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* One model artifact shared by the whole suite (built once). *)
let fixture =
  lazy
    (let dir = temp_dir () in
     at_exit (fun () -> try rm_rf dir with _ -> ());
     let model = Powermodel.Model.build (Circuits.Adder.circuit ~bits:3) in
     let path = Filename.concat dir "model.cfpm" in
     let meta =
       match Store.save ~defaults:(0.5, 0.25) ~path model with
       | Ok m -> m
       | Error e -> failwith (Guard.Error.to_string e)
     in
     (dir, model, meta))

(* A running server on a fresh Unix socket, torn down by [k]'s return. *)
let with_server ?(workers = 2) ?(max_pending = 16) ?deadline k =
  let dir, model, meta = Lazy.force fixture in
  let cache = Serve.Cache.create ~root:dir () in
  let handler = Serve.Handler.create ?deadline ~jobs:1 cache in
  let sock = Filename.concat dir (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  if Sys.file_exists sock then Sys.remove sock;
  let server =
    Serve.Server.create
      { Serve.Server.address = `Unix sock; workers; max_pending; handler }
  in
  let thread = Thread.create Serve.Server.run server in
  Fun.protect ~finally:(fun () ->
      Serve.Server.stop server;
      Thread.join thread)
  @@ fun () -> k ~dir ~model ~meta ~sock ~server ~handler

let request sock body =
  Serve.Client.with_connection (`Unix sock) (fun c ->
      Serve.Client.request_raw c body)

let member_exn what k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s: response lacks %S" what k

let parse_response what raw =
  match Json.of_string raw with
  | Ok j -> j
  | Error m -> Alcotest.failf "%s: bad response JSON %s: %s" what raw m

let expect_error what raw =
  let j = parse_response what raw in
  match Json.member "ok" j with
  | Some (Json.Bool false) -> member_exn what "error" j
  | _ -> Alcotest.failf "%s: expected an error response, got %s" what raw

let error_reason err =
  match Json.member "context" err with
  | Some ctx -> (
    match Json.member "reason" ctx with
    | Some (Json.String s) -> Some s
    | _ -> None)
  | None -> None

(* ------------------------------------------------------------------ *)

let test_ops_answer () =
  with_server @@ fun ~dir:_ ~model ~meta ~sock ~server:_ ~handler:_ ->
  (* ping *)
  let raw = ok_or_fail "ping" (request sock {|{"id":1,"op":"ping"}|}) in
  Alcotest.(check string) "ping" {|{"id":1,"ok":true,"result":"pong"}|} raw;
  (* eval matches the direct compiled evaluation *)
  let inputs = meta.Store.inputs in
  let x_i = String.make inputs '0' in
  let x_f = String.make inputs '1' in
  let raw =
    ok_or_fail "eval"
      (request sock
         (Printf.sprintf
            {|{"id":2,"op":"eval","model":"model.cfpm","x_i":"%s","x_f":"%s"}|}
            x_i x_f))
  in
  let direct =
    Powermodel.Model.switched_capacitance_compiled
      (Powermodel.Model.compile model)
      ~x_i:(Array.make inputs false)
      ~x_f:(Array.make inputs true)
  in
  let j = parse_response "eval" raw in
  (match Json.to_float (member_exn "eval" "result" j) with
  | Some v -> Alcotest.(check (float 0.0)) "eval value" direct v
  | None -> Alcotest.fail "eval: non-numeric result");
  (* expectation under explicit stats matches Analysis directly *)
  let raw =
    ok_or_fail "expectation"
      (request sock
         {|{"id":3,"op":"expectation","model":"model.cfpm","sp":0.5,"st":0.5}|})
  in
  let expect =
    Powermodel.Analysis.expected_capacitance model ~sp:0.5 ~st:0.5
  in
  let j = parse_response "expectation" raw in
  (match Json.to_float (member_exn "expectation" "result" j) with
  | Some v -> Alcotest.(check (float 0.0)) "expectation" expect v
  | None -> Alcotest.fail "expectation: non-numeric result")

let test_unknown_op () =
  with_server @@ fun ~dir:_ ~model:_ ~meta:_ ~sock ~server:_ ~handler:_ ->
  let raw =
    ok_or_fail "unknown" (request sock {|{"id":9,"op":"frobnicate"}|})
  in
  let err = expect_error "unknown" raw in
  (match Json.member "kind" err with
  | Some (Json.String "validation") -> ()
  | _ -> Alcotest.failf "unknown op: wrong kind in %s" raw)

let test_malformed_then_healthy () =
  with_server @@ fun ~dir:_ ~model:_ ~meta:_ ~sock ~server:_ ~handler:_ ->
  ok_or_fail "conn"
    (Serve.Client.with_connection (`Unix sock) (fun c ->
         let raw = ok_or_fail "garbage" (Serve.Client.request_raw c "{nope") in
         let err = expect_error "garbage" raw in
         (match Json.member "kind" err with
         | Some (Json.String "parse") -> ()
         | _ -> Alcotest.failf "garbage: wrong kind in %s" raw);
         Alcotest.(check (option string))
           "bad-request" (Some "bad-request") (error_reason err);
         (* the same connection still serves *)
         let raw =
           ok_or_fail "ping after garbage"
             (Serve.Client.request_raw c {|{"id":2,"op":"ping"}|})
         in
         Alcotest.(check string)
           "healthy after garbage" {|{"id":2,"ok":true,"result":"pong"}|} raw;
         Ok ()))

(* The socket path and the local handler produce byte-identical
   responses — the chaos CI's reference property. *)
let test_byte_identity () =
  with_server @@ fun ~dir ~model:_ ~meta ~sock ~server:_ ~handler:_ ->
  let local_cache = Serve.Cache.create ~root:dir () in
  let local = Serve.Handler.create ~jobs:1 local_cache in
  let inputs = meta.Store.inputs in
  let x_i = String.make inputs '0' in
  let x_f = String.concat "" (List.init inputs (fun i -> if i mod 2 = 0 then "1" else "0")) in
  let requests =
    [
      {|{"id":1,"op":"ping"}|};
      Printf.sprintf
        {|{"id":2,"op":"eval","model":"model.cfpm","x_i":"%s","x_f":"%s"}|}
        x_i x_f;
      Printf.sprintf
        {|{"id":3,"op":"eval_batch","model":"model.cfpm","transitions":[["%s","%s"],["%s","%s"]]}|}
        x_i x_f x_f x_i;
      {|{"id":4,"op":"expectation","model":"model.cfpm"}|};
      {|{"id":5,"op":"worst","model":"model.cfpm"}|};
      {|{"id":6,"op":"sensitivities","model":"model.cfpm"}|};
      {|{"id":7,"op":"meta","model":"model.cfpm"}|};
      {|{"id":8,"op":"nope"}|};
    ]
  in
  List.iter
    (fun body ->
      let over_socket = ok_or_fail "socket" (request sock body) in
      let locally = Serve.Handler.handle_string local body in
      Alcotest.(check string) ("byte identity: " ^ body) locally over_socket)
    requests

let test_deadline_overrun () =
  with_server @@ fun ~dir:_ ~model:_ ~meta:_ ~sock ~server:_ ~handler:_ ->
  let raw =
    ok_or_fail "deadline"
      (request sock
         {|{"id":1,"op":"expectation","model":"model.cfpm","deadline_ms":0}|})
  in
  let err = expect_error "deadline" raw in
  (match Json.member "kind" err with
  | Some (Json.String "resource") -> ()
  | _ -> Alcotest.failf "deadline: wrong kind in %s" raw);
  Alcotest.(check (option string))
    "reason" (Some "deadline") (error_reason err);
  (* and the server is still healthy *)
  let raw = ok_or_fail "ping" (request sock {|{"id":2,"op":"ping"}|}) in
  Alcotest.(check string) "alive" {|{"id":2,"ok":true,"result":"pong"}|} raw

(* Backpressure: one worker, one pending slot.  Connection A parks the
   worker mid-frame (header sent, payload withheld), connection B fills
   the queue, connection C must be shed with a typed overloaded error. *)
let test_overload_shed () =
  with_server ~workers:1 ~max_pending:0
  @@ fun ~dir:_ ~model:_ ~meta:_ ~sock ~server:_ ~handler:_ ->
  (* let the single worker reach its parking spot first: with
     max_pending=0 a connection racing server startup is itself shed, so
     retry the warmup ping until a worker answers *)
  let rec warmup tries =
    if tries = 0 then Alcotest.fail "warmup ping never answered";
    match request sock {|{"id":0,"op":"ping"}|} with
    | Ok {|{"id":0,"ok":true,"result":"pong"}|} -> ()
    | Ok _ | Error _ ->
      Thread.delay 0.1;
      warmup (tries - 1)
  in
  warmup 50;
  Thread.delay 0.3;
  let dial () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  let a = dial () in
  Fun.protect ~finally:(fun () -> try Unix.close a with _ -> ())
  @@ fun () ->
  (* a frame header promising 100 bytes that never arrive: the single
     worker blocks reading the payload *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 100l;
  ignore (Unix.write a header 0 4);
  Thread.delay 0.3;
  (* the worker is parked and the queue bound is zero, so the next
     connection finds no idle worker and no queue slot: shed *)
  let c = dial () in
  Fun.protect ~finally:(fun () -> try Unix.close c with _ -> ())
  @@ fun () ->
  Thread.delay 0.2;
  let buf = Bytes.create 4 in
  let rec read_exact fd b off len =
    if len > 0 then begin
      let n = Unix.read fd b off len in
      if n = 0 then Alcotest.fail "shed connection closed without a frame";
      read_exact fd b (off + n) (len - n)
    end
  in
  read_exact c buf 0 4;
  let len = Int32.to_int (Bytes.get_int32_be buf 0) in
  let payload = Bytes.create len in
  read_exact c payload 0 len;
  let err = expect_error "shed" (Bytes.to_string payload) in
  (match Json.member "kind" err with
  | Some (Json.String "resource") -> ()
  | _ -> Alcotest.failf "shed: wrong kind in %s" (Bytes.to_string payload));
  Alcotest.(check (option string))
    "reason" (Some "overloaded") (error_reason err)

let test_fault_injection () =
  with_server @@ fun ~dir:_ ~model:_ ~meta:_ ~sock ~server:_ ~handler:_ ->
  Guard.Fault.install
    [ { Guard.Fault.point = "serve_request"; mode = Guard.Fault.Fail;
        rate = 1.0; seed = 1 } ];
  Fun.protect ~finally:(fun () -> Guard.Fault.clear ())
  @@ fun () ->
  let raw =
    ok_or_fail "injected" (request sock {|{"id":1,"op":"ping"}|})
  in
  let err = expect_error "injected" raw in
  (match Json.member "kind" err with
  | Some (Json.String "resource") -> ()
  | _ -> Alcotest.failf "injected: wrong kind in %s" raw);
  (* disarm: the same request answers *)
  Guard.Fault.clear ();
  let raw = ok_or_fail "healed" (request sock {|{"id":1,"op":"ping"}|}) in
  Alcotest.(check string)
    "healed" {|{"id":1,"ok":true,"result":"pong"}|} raw

let test_store_read_fault () =
  let dir, _, _ = Lazy.force fixture in
  let cache = Serve.Cache.create ~root:dir () in
  let handler = Serve.Handler.create ~jobs:1 cache in
  Guard.Fault.install
    [ { Guard.Fault.point = "store_read"; mode = Guard.Fault.Fail;
        rate = 1.0; seed = 1 } ];
  Fun.protect ~finally:(fun () -> Guard.Fault.clear ())
  @@ fun () ->
  (* both store entry points fire the seam, with the same typed error *)
  let path = Filename.concat dir "model.cfpm" in
  let injected name f =
    match Guard.Fault.with_task ~key:"store" ~attempt:0 (fun () -> f path) with
    | Ok () -> Alcotest.failf "store_read: %s ignored the fault" name
    | Error e -> e
    | exception e ->
      Alcotest.failf "store_read: %s raised %s" name (Printexc.to_string e)
  in
  let full = injected "load" (fun p -> Result.map ignore (Store.load p)) in
  let compiled =
    injected "load_compiled" (fun p -> Result.map ignore (Store.load_compiled p))
  in
  Alcotest.(check string) "store_read: load error kind" "resource"
    (Guard.Error.kind_name full.Guard.Error.kind);
  if full <> compiled then
    Alcotest.failf "store_read: load and load_compiled differ: %s | %s"
      (Guard.Error.to_string full) (Guard.Error.to_string compiled);
  Alcotest.(check (option string)) "store_read: same reason"
    (Store.reason full) (Store.reason compiled);
  let raw =
    Serve.Handler.handle_string handler
      {|{"id":1,"op":"meta","model":"model.cfpm"}|}
  in
  let err = expect_error "store_read" raw in
  (match Json.member "kind" err with
  | Some (Json.String "resource") -> ()
  | _ -> Alcotest.failf "store_read: wrong kind in %s" raw);
  (* load failures are not cached: disarm and the artifact loads *)
  Guard.Fault.clear ();
  let raw =
    Serve.Handler.handle_string handler
      {|{"id":2,"op":"meta","model":"model.cfpm"}|}
  in
  match Json.of_string raw with
  | Ok j -> (
    match Json.member "ok" j with
    | Some (Json.Bool true) -> ()
    | _ -> Alcotest.failf "store_read heal: %s" raw)
  | Error m -> Alcotest.failf "store_read heal: %s" m

let test_corrupt_artifact () =
  with_server @@ fun ~dir ~model:_ ~meta:_ ~sock ~server:_ ~handler:_ ->
  (* corrupt a copy of the artifact *)
  let src = Filename.concat dir "model.cfpm" in
  let dst = Filename.concat dir "rotten.cfpm" in
  let ic = open_in_bin src in
  let n = in_channel_length ic in
  let b = Bytes.of_string (really_input_string ic n) in
  close_in ic;
  Bytes.set b (n / 2) (Char.chr (Char.code (Bytes.get b (n / 2)) lxor 0x40));
  let oc = open_out_bin dst in
  output_bytes oc b;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove dst)
  @@ fun () ->
  let raw =
    ok_or_fail "rotten"
      (request sock {|{"id":1,"op":"meta","model":"rotten.cfpm"}|})
  in
  let err = expect_error "rotten" raw in
  Alcotest.(check (option string))
    "reason" (Some "corrupt") (error_reason err);
  (* the healthy artifact still serves on the same server *)
  let raw =
    ok_or_fail "healthy"
      (request sock {|{"id":2,"op":"meta","model":"model.cfpm"}|})
  in
  let j = parse_response "healthy" raw in
  match Json.member "ok" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.failf "healthy artifact failed after corrupt one: %s" raw

let test_path_escape () =
  with_server @@ fun ~dir:_ ~model:_ ~meta:_ ~sock ~server:_ ~handler:_ ->
  List.iter
    (fun path ->
      let raw =
        ok_or_fail "escape"
          (request sock
             (Printf.sprintf {|{"id":1,"op":"meta","model":"%s"}|} path))
      in
      let err = expect_error ("escape " ^ path) raw in
      match Json.member "kind" err with
      | Some (Json.String "validation") -> ()
      | _ -> Alcotest.failf "escape %s: wrong kind in %s" path raw)
    [ "../model.cfpm"; "/etc/passwd"; "a/../../b.cfpm"; "" ]

let test_cache_eviction () =
  let dir, _, meta = Lazy.force fixture in
  (* a second, wider artifact so the cache has something to evict *)
  let model2 = Powermodel.Model.build (Circuits.Adder.circuit ~bits:4) in
  let path2 = Filename.concat dir "model2.cfpm" in
  let meta2 = ok_or_fail "save2" (Store.save ~path:path2 model2) in
  Fun.protect ~finally:(fun () -> Sys.remove path2)
  @@ fun () ->
  (* ceiling below two artifacts but above either one *)
  let ceiling =
    max (Store.approx_bytes meta) (Store.approx_bytes meta2) + 1
  in
  let cache = Serve.Cache.create ~byte_ceiling:ceiling ~root:dir () in
  ignore (ok_or_fail "load1" (Serve.Cache.find_or_load cache "model.cfpm"));
  ignore (ok_or_fail "load2" (Serve.Cache.find_or_load cache "model2.cfpm"));
  let stats = Serve.Cache.stats cache in
  (match Json.member "evictions" stats with
  | Some (Json.Int n) when n >= 1 -> ()
  | _ ->
    Alcotest.failf "expected an eviction in %s"
      (Json.to_string ~pretty:false stats));
  (* the evicted artifact reloads on demand *)
  ignore (ok_or_fail "reload" (Serve.Cache.find_or_load cache "model.cfpm"));
  (* Alternating the two artifacts under that ceiling reloads on every
     request; the answers must be byte-identical to an unbounded
     cache's, and every reload must count as a miss. *)
  let requests =
    List.concat_map
      (fun op ->
        List.map
          (fun (name, (m : Store.meta)) ->
            let ones = String.make m.Store.inputs '1' in
            let alt =
              String.init m.Store.inputs (fun i ->
                  if i mod 2 = 0 then '1' else '0')
            in
            Printf.sprintf {|{"id":1,"op":"%s","model":"%s"%s}|} op name
              (match op with
              | "eval" -> Printf.sprintf {|,"x_i":"%s","x_f":"%s"|} alt ones
              | "eval_batch" ->
                Printf.sprintf {|,"transitions":[["%s","%s"],["%s","%s"]]|}
                  alt ones ones alt
              | "expectation" -> {|,"sp":0.3,"st":0.2|}
              | "worst" -> {|,"method":"add"|}
              | _ -> ""))
          [ ("model.cfpm", meta); ("model2.cfpm", meta2) ])
      [ "eval"; "eval_batch"; "expectation"; "worst"; "sensitivities"; "meta" ]
  in
  let answer cache =
    let h = Serve.Handler.create ~jobs:1 cache in
    List.map (Serve.Handler.handle_string h) requests
  in
  let bounded = Serve.Cache.create ~byte_ceiling:ceiling ~root:dir () in
  let unbounded = Serve.Cache.create ~root:dir () in
  let reloaded = answer bounded in
  List.iter
    (fun raw ->
      match Json.member "ok" (parse_response "forced reload" raw) with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.failf "forced reload answered an error: %s" raw)
    reloaded;
  Alcotest.(check (list string))
    "reloading answers as resident" (answer unbounded) reloaded;
  let stat cache k =
    match Json.member k (Serve.Cache.stats cache) with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "cache stats lack %s" k
  in
  Alcotest.(check int) "a miss per reload" (List.length requests)
    (stat bounded "misses");
  Alcotest.(check int) "no hits" 0 (stat bounded "hits");
  Alcotest.(check int) "unbounded loads once per artifact" 2
    (stat unbounded "misses")

(* The exported cache counters must track the internal ones exactly —
   including hits taken on the racing-load path, where a request that
   loaded an artifact finds another request beat it into the table. *)
let test_cache_metrics_parity () =
  let dir, _, _ = Lazy.force fixture in
  let m_hits = Obs.Metrics.metric "serve.cache_hits" in
  let m_misses = Obs.Metrics.metric "serve.cache_misses" in
  let h0 = Obs.Metrics.value m_hits in
  let m0 = Obs.Metrics.value m_misses in
  let cache = Serve.Cache.create ~root:dir () in
  (* cold stampede: concurrent requests race one artifact, so some hits
     land on the racing-load path *)
  let threads =
    List.init 8 (fun _ ->
        Thread.create
          (fun () -> ignore (Serve.Cache.find_or_load cache "model.cfpm"))
          ())
  in
  List.iter Thread.join threads;
  ignore (ok_or_fail "warm hit" (Serve.Cache.find_or_load cache "model.cfpm"));
  let stats = Serve.Cache.stats cache in
  let stat k =
    match Json.member k stats with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "missing %s in %s" k (Json.to_string stats)
  in
  Alcotest.(check int) "hit parity" (stat "hits")
    (Obs.Metrics.value m_hits - h0);
  Alcotest.(check int) "miss parity" (stat "misses")
    (Obs.Metrics.value m_misses - m0);
  Alcotest.(check bool) "at least one hit" true (stat "hits" >= 1);
  Alcotest.(check int) "exactly one load" 1 (stat "misses")

(* worst: method routing — the ADD traversal, the independent PBO
   oracle, and the cross-validated pair, all over the same op. *)
let test_worst_methods () =
  let dir, model, meta = Lazy.force fixture in
  let resolve name =
    if String.equal name meta.Store.circuit then
      Some (Circuits.Adder.circuit ~bits:3)
    else None
  in
  let cache = Serve.Cache.create ~root:dir () in
  let handler =
    Serve.Handler.create ~jobs:1 ~resolve_circuit:resolve cache
  in
  let ask body = Serve.Handler.handle_string handler body in
  let result what raw =
    let j = parse_response what raw in
    match Json.member "ok" j with
    | Some (Json.Bool true) -> member_exn what "result" j
    | _ -> Alcotest.failf "%s: error response %s" what raw
  in
  let number what j k =
    match Json.to_float (member_exn what k j) with
    | Some v -> v
    | None -> Alcotest.failf "%s: %s is not a number" what k
  in
  let _, _, truth = Powermodel.Analysis.worst_case_transition model in
  let r =
    result "add"
      (ask {|{"id":1,"op":"worst","model":"model.cfpm","method":"add"}|})
  in
  Alcotest.(check (float 0.0)) "add value" truth (number "add" r "value");
  (match Json.member "optimal" r with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "add: expected optimal=true on an exact model");
  (* the PBO route needs no ADD and must agree float-exactly *)
  let r =
    result "pbo"
      (ask {|{"id":2,"op":"worst","model":"model.cfpm","method":"pbo"}|})
  in
  Alcotest.(check (float 0.0)) "pbo value" truth (number "pbo" r "value");
  Alcotest.(check (float 0.0)) "pbo upper" truth (number "pbo" r "upper");
  (* both routes cross-validate in one request *)
  let r =
    result "both"
      (ask {|{"id":3,"op":"worst","model":"model.cfpm","method":"both"}|})
  in
  (match (Json.member "comparable" r, Json.member "agree" r) with
  | Some (Json.Bool true), Some (Json.Bool true) -> ()
  | _ ->
    Alcotest.failf "both: expected comparable and agree in %s"
      (Json.to_string ~pretty:false r));
  let err =
    expect_error "bad method"
      (ask {|{"id":4,"op":"worst","model":"model.cfpm","method":"sat"}|})
  in
  match Json.member "kind" err with
  | Some (Json.String "validation") -> ()
  | _ -> Alcotest.fail "bad method: wrong error kind"

let test_worst_pbo_needs_resolver () =
  let dir, _, _ = Lazy.force fixture in
  let cache = Serve.Cache.create ~root:dir () in
  let handler = Serve.Handler.create ~jobs:1 cache in
  let raw =
    Serve.Handler.handle_string handler
      {|{"id":1,"op":"worst","model":"model.cfpm","method":"pbo"}|}
  in
  let err = expect_error "no resolver" raw in
  (match Json.member "kind" err with
  | Some (Json.String "validation") -> ()
  | _ -> Alcotest.failf "no resolver: wrong kind in %s" raw);
  (* the default add path is unaffected *)
  let raw =
    Serve.Handler.handle_string handler
      {|{"id":2,"op":"worst","model":"model.cfpm"}|}
  in
  match Json.member "ok" (parse_response "add" raw) with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.failf "add without resolver failed: %s" raw

(* With the memoized traversal, a worst request on the case-study model
   (fig7b scale) answers inside the default one-second request deadline
   while concurrent eval traffic hammers the same artifact.  The old
   O(depth x subtree) sweep re-walked subtrees once per level under the
   analysis mutex, which is exactly the shape that blew deadlines. *)
let test_worst_meets_deadline_under_load () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ())
  @@ fun () ->
  let entry = Circuits.Suite.case_study in
  let c = entry.Circuits.Suite.build () in
  let model = Powermodel.Model.build c in
  let path = Filename.concat dir "case.cfpm" in
  let meta =
    match Store.save ~path model with
    | Ok m -> m
    | Error e -> Alcotest.failf "save: %s" (Guard.Error.to_string e)
  in
  let cache = Serve.Cache.create ~root:dir () in
  let handler = Serve.Handler.create ~jobs:1 ~deadline:1.0 cache in
  let inputs = meta.Store.inputs in
  let x_i = String.make inputs '0' in
  let x_f = String.make inputs '1' in
  let eval_req =
    Printf.sprintf
      {|{"id":7,"op":"eval","model":"case.cfpm","x_i":"%s","x_f":"%s"}|} x_i
      x_f
  in
  let stop = Atomic.make false in
  let traffic =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              ignore (Serve.Handler.handle_string handler eval_req)
            done)
          ())
  in
  Fun.protect ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Thread.join traffic)
  @@ fun () ->
  let raw =
    Serve.Handler.handle_string handler
      {|{"id":1,"op":"worst","model":"case.cfpm"}|}
  in
  let j = parse_response "worst under load" raw in
  (match Json.member "ok" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.failf "worst under load missed the deadline: %s" raw);
  let _, _, truth = Powermodel.Analysis.worst_case_transition model in
  match Json.to_float (member_exn "worst" "value" (member_exn "worst" "result" j)) with
  | Some v -> Alcotest.(check (float 0.0)) "worst value" truth v
  | None -> Alcotest.failf "worst under load: non-numeric value in %s" raw

(* ------------------------------------------------------------------ *)
(* Concurrent analysis.  Analytic requests read an immutable program,
   so concurrent ones on one cached model answer the sequential bytes,
   and a request's deadline budget stays with that request.           *)

let analysis_fixture =
  lazy
    (let dir = temp_dir () in
     at_exit (fun () -> try rm_rf dir with _ -> ());
     let entry = Option.get (Circuits.Suite.find "cm150") in
     let model = Powermodel.Model.build (entry.Circuits.Suite.build ()) in
     ignore
       (ok_or_fail "save"
          (Store.save ~path:(Filename.concat dir "cm150.cfpm") model)
         : Store.meta);
     dir)

let analysis_requests =
  [
    {|{"id":1,"op":"expectation","model":"cm150.cfpm"}|};
    {|{"id":2,"op":"expectation","model":"cm150.cfpm","sp":0.3,"st":0.2}|};
    {|{"id":3,"op":"worst","model":"cm150.cfpm","method":"add"}|};
    {|{"id":4,"op":"sensitivities","model":"cm150.cfpm"}|};
    {|{"id":5,"op":"expectation","model":"cm150.cfpm","sp":0.8,"st":0.1,"deadline_ms":60000}|};
    {|{"id":6,"op":"sensitivities","model":"cm150.cfpm","deadline_ms":60000}|};
  ]

(* Run [rounds] passes of [requests] on each of [clients] threads
   against one handler; returns every thread's answers in order. *)
let concurrent_answers handler ~clients ~rounds requests =
  let answers = Array.make clients [] in
  let threads =
    List.init clients (fun k ->
        Thread.create
          (fun () ->
            for _ = 1 to rounds do
              List.iter
                (fun r ->
                  answers.(k) <-
                    Serve.Handler.handle_string handler r :: answers.(k))
                requests
            done)
          ())
  in
  List.iter Thread.join threads;
  Array.map List.rev answers

let test_concurrent_analysis_identity () =
  let dir = Lazy.force analysis_fixture in
  let sequential =
    let h = Serve.Handler.create ~jobs:1 (Serve.Cache.create ~root:dir ()) in
    List.map (Serve.Handler.handle_string h) analysis_requests
  in
  List.iter
    (fun raw ->
      match Json.member "ok" (parse_response "sequential" raw) with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.failf "sequential answer is an error: %s" raw)
    sequential;
  let shared = Serve.Handler.create ~jobs:1 (Serve.Cache.create ~root:dir ()) in
  let answers =
    concurrent_answers shared ~clients:4 ~rounds:2 analysis_requests
  in
  Array.iteri
    (fun k got ->
      Alcotest.(check (list string))
        (Printf.sprintf "client %d answers" k)
        (sequential @ sequential) got)
    answers

(* The ambient budget slot is shared by every thread of a domain; serve
   workers are threads.  Concurrent deadline requests must not leave a
   budget installed once they have all finished. *)
let test_deadline_budget_does_not_leak () =
  let dir = Lazy.force analysis_fixture in
  Guard.Budget.reset_ambient ();
  let h =
    Serve.Handler.create ~jobs:1 ~deadline:60.0
      (Serve.Cache.create ~root:dir ())
  in
  ignore
    (concurrent_answers h ~clients:4 ~rounds:3
       [
         {|{"id":1,"op":"sensitivities","model":"cm150.cfpm"}|};
         {|{"id":2,"op":"expectation","model":"cm150.cfpm","deadline_ms":60000}|};
       ]);
  let leaked = Option.is_some (Guard.Budget.ambient ()) in
  Guard.Budget.reset_ambient ();
  Alcotest.(check bool) "no ambient budget after the requests" false leaked

let test_graceful_stop () =
  let dir, _, _ = Lazy.force fixture in
  let cache = Serve.Cache.create ~root:dir () in
  let handler = Serve.Handler.create ~jobs:1 cache in
  let sock = Filename.concat dir "drain.sock" in
  let server =
    Serve.Server.create
      { Serve.Server.address = `Unix sock; workers = 2; max_pending = 4;
        handler }
  in
  let thread = Thread.create Serve.Server.run server in
  let raw = ok_or_fail "ping" (request sock {|{"id":1,"op":"ping"}|}) in
  Alcotest.(check string) "served" {|{"id":1,"ok":true,"result":"pong"}|} raw;
  Serve.Server.stop server;
  Thread.join thread;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock);
  (* stop is idempotent *)
  Serve.Server.stop server

(* ------------------------------------------------------------------ *)
(* TCP.  A frame whose 4-byte header and payload leave in two writes
   meets Nagle's algorithm and the peer's delayed ACK, which stalls each
   round trip by tens of milliseconds; 50 pings then take seconds.      *)

let test_tcp_round_trips () =
  let dir, _, meta = Lazy.force fixture in
  let handler =
    Serve.Handler.create ~jobs:1 (Serve.Cache.create ~root:dir ())
  in
  let server =
    Serve.Server.create
      {
        Serve.Server.address = `Tcp ("127.0.0.1", 0);
        workers = 2;
        max_pending = 16;
        handler;
      }
  in
  let address =
    match Serve.Server.address server with
    | Unix.ADDR_INET (_, port) -> `Tcp ("127.0.0.1", port)
    | Unix.ADDR_UNIX _ -> Alcotest.fail "TCP server bound a Unix address"
  in
  let thread = Thread.create Serve.Server.run server in
  Fun.protect ~finally:(fun () ->
      Serve.Server.stop server;
      Thread.join thread)
  @@ fun () ->
  ok_or_fail "tcp"
    (Serve.Client.with_connection address (fun c ->
         let t0 = Unix.gettimeofday () in
         for i = 1 to 50 do
           let raw =
             ok_or_fail "ping"
               (Serve.Client.request_raw c
                  (Printf.sprintf {|{"id":%d,"op":"ping"}|} i))
           in
           Alcotest.(check string)
             "pong"
             (Printf.sprintf {|{"id":%d,"ok":true,"result":"pong"}|} i)
             raw
         done;
         let elapsed = Unix.gettimeofday () -. t0 in
         if elapsed >= 1.0 then
           Alcotest.failf "50 TCP ping round trips took %.2f s" elapsed;
         (* a two-block batch answers the same bytes as local evaluation *)
         let inputs = meta.Store.inputs in
         let rng = Random.State.make [| 17 |] in
         let bits () =
           String.init inputs (fun _ ->
               if Random.State.bool rng then '1' else '0')
         in
         let body =
           Json.to_string ~pretty:false
             (Json.Obj
                [
                  ("id", Json.Int 51);
                  ("op", Json.String "eval_batch");
                  ("model", Json.String "model.cfpm");
                  ( "transitions",
                    Json.List
                      (List.init 5000 (fun _ ->
                           Json.List
                             [ Json.String (bits ()); Json.String (bits ()) ]))
                  );
                ])
         in
         let local =
           Serve.Handler.create ~jobs:1 (Serve.Cache.create ~root:dir ())
         in
         let over_tcp =
           ok_or_fail "eval_batch" (Serve.Client.request_raw c body)
         in
         Alcotest.(check string)
           "eval_batch over TCP"
           (Serve.Handler.handle_string local body)
           over_tcp;
         Ok ()))

(* ------------------------------------------------------------------ *)
(* eval_batch byte identity.  The route the handler took before it
   packed bitstrings straight into the batch buffer — bool arrays,
   Powermodel.Vars.env, Dd.Compiled.pack — is kept here verbatim, and
   its answers, rendered by the pre-memo printer, are the reference.   *)

let reference_bits_of_string ~inputs k s =
  if
    String.length s = inputs
    && String.for_all (fun c -> c = '0' || c = '1') s
  then Ok (Array.init inputs (fun i -> s.[i] = '1'))
  else
    Error
      (Guard.Error.validation
         ~context:[ (k, s) ]
         (Printf.sprintf "%s must be a %d-bit string of 0s and 1s" k inputs))

let reference_eval_batch ~inputs compiled req =
  let ( let* ) = Result.bind in
  let* pairs =
    match Json.member "transitions" req with
    | Some (Json.List l) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | Json.List [ Json.String a; Json.String b ] ->
            let* x_i = reference_bits_of_string ~inputs "x_i" a in
            let* x_f = reference_bits_of_string ~inputs "x_f" b in
            Ok ((x_i, x_f) :: acc)
          | _ ->
            Error
              (Guard.Error.validation
                 "transitions must be a list of [x_i, x_f] bitstring pairs"))
        (Ok []) l
      |> Result.map List.rev
    | _ ->
      Error (Guard.Error.validation "request lacks a transitions list")
  in
  let program = Powermodel.Model.compiled_program compiled in
  let envs =
    Array.of_list
      (List.map (fun (x_i, x_f) -> Powermodel.Vars.env ~x_i ~x_f) pairs)
  in
  let total = Array.length envs in
  let rec go i acc =
    if i >= total then Ok (List.concat (List.rev acc))
    else
      let n = min 4096 (total - i) in
      let packed = Dd.Compiled.pack program (Array.sub envs i n) in
      let out = Dd.Compiled.eval_batch ~jobs:1 program ~inputs:packed ~n in
      go (i + n)
        (Array.to_list (Array.map (fun v -> Json.Float v) out) :: acc)
  in
  let* values = go 0 [] in
  Ok (Json.List values)

(* The reference answer to any request text: a parse error as the
   handler words it, else the artifact load, else the reference batch. *)
let reference_response ~dir text =
  let render j = Test_json.reference_to_string ~pretty:false j in
  match Json.of_string text with
  | Error msg ->
    render
      (Serve.Protocol.error_response ~id:Json.Null
         (Guard.Error.parse
            ~context:[ ("reason", "bad-request") ]
            (Printf.sprintf "request is not valid JSON: %s" msg)))
  | Ok req ->
    let id = Option.value (Json.member "id" req) ~default:Json.Null in
    let ( let* ) = Result.bind in
    render
      (match
         let* name =
           match Json.member "model" req with
           | Some (Json.String name) -> Ok name
           | _ -> Alcotest.failf "request lacks a model: %s" text
         in
         let* loaded = Store.load_compiled (Filename.concat dir name) in
         reference_eval_batch ~inputs:loaded.Store.meta.Store.inputs
           loaded.Store.compiled req
       with
      | Ok r -> Serve.Protocol.ok_response ~id r
      | Error e -> Serve.Protocol.error_response ~id e)

(* A generated batch: a small random circuit, exact or collapsed to a
   few nodes (collapsed leaves are averages, which need %.17g), a batch
   size, and up to three corruptions (a bad bit, a short string, a
   non-pair) at random transitions. *)
type batch_case = {
  circuit_seed : int;
  max_size : int option;
  size : int;
  bits_seed : int;
  corruptions : (int * int * int) list;  (** kind, transition, bit *)
}

let batch_case =
  let open QCheck.Gen in
  let gen =
    int_range 1 40 >>= fun circuit_seed ->
    opt ~ratio:0.6 (int_range 4 16) >>= fun max_size ->
    frequency
      [ (2, oneofl [ 0; 1; 4096; 5000 ]); (1, int_range 2 40) ]
    >>= fun size ->
    int >>= fun bits_seed ->
    frequency
      [
        (2, return []);
        (1, list_size (int_range 1 3) (triple (int_bound 4) nat nat));
      ]
    >|= fun corruptions ->
    { circuit_seed; max_size; size; bits_seed; corruptions }
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "circuit %d, max_size %s, %d transitions, bits %d, [%s]"
        c.circuit_seed
        (match c.max_size with Some m -> string_of_int m | None -> "exact")
        c.size c.bits_seed
        (String.concat "; "
           (List.map
              (fun (k, t, b) -> Printf.sprintf "%d@%d.%d" k t b)
              c.corruptions)))
    gen

let batch_fixture =
  lazy
    (let dir = temp_dir () in
     at_exit (fun () -> try rm_rf dir with _ -> ());
     (dir, Serve.Handler.create ~jobs:1 (Serve.Cache.create ~root:dir ())))

let model_name c =
  Printf.sprintf "m%d_%s.cfpm" c.circuit_seed
    (match c.max_size with Some m -> string_of_int m | None -> "exact")

let batch_request ~inputs c =
  let rng = Random.State.make [| c.bits_seed |] in
  let bits () =
    String.init inputs (fun _ -> if Random.State.bool rng then '1' else '0')
  in
  let pairs = Array.init c.size (fun _ -> (bits (), bits ())) in
  let items =
    Array.map (fun (a, b) -> Json.List [ Json.String a; Json.String b ]) pairs
  in
  if c.size > 0 then
    List.iter
      (fun (kind, t, b) ->
        let t = t mod c.size and b = b mod inputs in
        let x_i, x_f = pairs.(t) in
        let flip s = String.mapi (fun j ch -> if j = b then '2' else ch) s in
        items.(t) <-
          (match kind with
          | 0 -> Json.List [ Json.String (flip x_i); Json.String x_f ]
          | 1 -> Json.List [ Json.String x_i; Json.String (flip x_f) ]
          | 2 ->
            Json.List [ Json.String x_i; Json.String (String.sub x_f 0 b) ]
          | 3 -> Json.List [ Json.String x_i ]
          | _ -> Json.List [ Json.Int 0; Json.String x_f ]))
      c.corruptions;
  Json.to_string ~pretty:false
    (Json.Obj
       [
         ("id", Json.Int c.bits_seed);
         ("op", Json.String "eval_batch");
         ("model", Json.String (model_name c));
         ("transitions", Json.List (Array.to_list items));
       ])

(* Names that need an escape, a non-ASCII byte or a space, each a
   link to the case's artifact. *)
let model_aliases dir c =
  let base = Filename.remove_extension (model_name c) in
  List.map
    (fun name ->
      let path = Filename.concat dir name in
      if not (Sys.file_exists path) then Unix.symlink (model_name c) path;
      name)
    [ base ^ "\"q.cfpm"; base ^ "\xc3\xa9.cfpm"; base ^ " s.cfpm" ]

(* The canonical text [batch_request] renders, and the same request as
   texts the handler must answer through its generic route: other
   layouts, extra members, other id tokens, other model names and other
   transition lists. *)
let request_variants ~dir c text =
  let members =
    match Json.of_string text with
    | Ok (Json.Obj members) -> members
    | _ -> Alcotest.failf "batch request is not an object: %s" text
  in
  let render ms = Json.to_string ~pretty:false (Json.Obj ms) in
  let with_member k v =
    render (List.map (fun (k', v') -> (k', if k' = k then v else v')) members)
  in
  let with_id id =
    let canonical_id = Printf.sprintf "{\"id\":%d," c.bits_seed in
    let rest = String.length text - String.length canonical_id in
    Printf.sprintf "{\"id\":%s,%s" id
      (String.sub text (String.length canonical_id) rest)
  in
  let widen = function
    | Json.List pair ->
      Json.List
        (List.map
           (function Json.String s -> Json.String (s ^ "0") | j -> j)
           pair)
    | j -> j
  in
  let transitions =
    match List.assoc "transitions" members with
    | Json.List l -> l
    | _ -> Alcotest.failf "batch request lacks transitions: %s" text
  in
  [
    text;
    Json.to_string ~pretty:true (Json.Obj members);
    render (List.rev members);
    render (members @ [ ("deadline_ms", Json.Int 60000) ]);
  ]
  @ List.map with_id [ "0"; "-0"; "-7"; "007"; "99999999999999999999" ]
  @ List.map
      (fun name -> with_member "model" (Json.String name))
      (model_aliases dir c)
  @ [
      with_member "transitions" (Json.List []);
      with_member "transitions" (Json.List (List.map widen transitions));
      with_member "model" (Json.String "absent.cfpm");
    ]

let eval_batch_matches_reference c =
  let dir, handler = Lazy.force batch_fixture in
  let path = Filename.concat dir (model_name c) in
  if not (Sys.file_exists path) then begin
    (* No budget belongs to this build: clear the domain's ambient slot
       so nothing an earlier test left there can abort it. *)
    Guard.Budget.reset_ambient ();
    let model =
      Powermodel.Model.build ?max_size:c.max_size
        (Util.small_random_circuit c.circuit_seed)
    in
    ignore (ok_or_fail "save" (Store.save ~path model) : Store.meta)
  end;
  let loaded = ok_or_fail "load" (Store.load_compiled path) in
  let inputs = loaded.Store.meta.Store.inputs in
  List.iter
    (fun text ->
      let expected = reference_response ~dir text in
      let actual = Serve.Handler.handle_string handler text in
      if not (String.equal expected actual) then
        QCheck.Test.fail_reportf
          "response differs:@.request   %s@.reference %s@.handler   %s"
          (if String.length text > 200 then String.sub text 0 200 ^ "..."
           else text)
          expected actual)
    (request_variants ~dir c (batch_request ~inputs c));
  true

(* A canonical frame and its pretty-printed twin take different routes
   through the handler; everything a client or an operator can see must
   be the same.  Two fresh handlers replay one mixed list, one fed the
   canonical texts and one their twins. *)
let parity_requests ~inputs =
  let bits k =
    String.init inputs (fun j -> if (j + k) mod 3 = 0 then '1' else '0')
  in
  let batch ?(model = "model.cfpm") ?(width = inputs) id n =
    Json.Obj
      [
        ("id", Json.Int id);
        ("op", Json.String "eval_batch");
        ("model", Json.String model);
        ( "transitions",
          Json.List
            (List.init n (fun k ->
                 Json.List
                   [
                     Json.String (String.sub (bits k ^ "01") 0 width);
                     Json.String (String.sub (bits (k + 1) ^ "10") 0 width);
                   ])) );
      ]
  in
  List.map (Json.to_string ~pretty:false)
    [
      batch 1 3;
      Json.Obj [ ("id", Json.Int 2); ("op", Json.String "ping") ];
      batch 3 4096;
      batch ~width:(inputs + 1) 4 2;
      batch ~model:"absent.cfpm" 5 2;
      batch 6 0;
      Json.Obj
        [ ("id", Json.Int 7); ("op", Json.String "meta");
          ("model", Json.String "model.cfpm") ];
      batch 8 5000;
      Json.Obj [ ("id", Json.Int 9); ("op", Json.String "stats") ];
    ]

let pretty text =
  match Json.of_string text with
  | Ok j -> Json.to_string ~pretty:true j
  | Error m -> Alcotest.failf "bad request %s: %s" text m

let replay ?deadline texts =
  let dir, _, _ = Lazy.force fixture in
  let handler =
    Serve.Handler.create ?deadline ~jobs:1 (Serve.Cache.create ~root:dir ())
  in
  let count name = Obs.Metrics.value (Obs.Metrics.metric name) in
  let r0 = count "serve.requests" and e0 = count "serve.errors" in
  let answers = List.map (Serve.Handler.handle_string handler) texts in
  (answers, count "serve.requests" - r0, count "serve.errors" - e0)

let test_route_parity () =
  let _, _, meta = Lazy.force fixture in
  let texts = parity_requests ~inputs:meta.Store.inputs in
  let check what =
    let a, ra, ea = replay texts in
    let b, rb, eb = replay (List.map pretty texts) in
    List.iter2 (Alcotest.(check string) (what ^ ": same answer")) a b;
    Alcotest.(check int) (what ^ ": serve.requests") ra rb;
    Alcotest.(check int) (what ^ ": serve.errors") ea eb;
    a
  in
  (* the closing stats answers (requests, errors, cache hits and
     misses) are among the compared answers *)
  ignore (check "fault-free" : string list);
  Guard.Fault.install
    [ { Guard.Fault.point = "serve_request"; mode = Guard.Fault.Fail;
        rate = 0.5; seed = 3 } ];
  let answers =
    Fun.protect ~finally:Guard.Fault.clear (fun () -> check "faulted")
  in
  let failed =
    List.filter
      (fun raw ->
        Json.member "ok" (parse_response "faulted" raw)
        = Some (Json.Bool false))
      answers
  in
  Alcotest.(check bool) "some requests fault" true (List.length failed > 2)

(* A spent default deadline: the canonical batch answers the generic
   route's deadline error (the elapsed time aside, which is a clock
   reading). *)
let test_canonical_deadline () =
  let dir, _, meta = Lazy.force fixture in
  let text = List.hd (parity_requests ~inputs:meta.Store.inputs) in
  let handler =
    Serve.Handler.create ~deadline:1e-9 ~jobs:1
      (Serve.Cache.create ~root:dir ())
  in
  let without_elapsed raw =
    match parse_response "deadline" raw with
    | Json.Obj members ->
      let err = member_exn "deadline" "error" (Json.Obj members) in
      let ctx =
        match Json.member "context" err with
        | Some (Json.Obj c) -> List.remove_assoc "elapsed_seconds" c
        | _ -> []
      in
      ( Json.member "id" (Json.Obj members),
        Json.member "kind" err,
        Json.member "what" err,
        Json.to_string (Json.Obj ctx) )
    | _ -> Alcotest.failf "deadline: not an object: %s" raw
  in
  let canonical = Serve.Handler.handle_string handler text in
  let generic =
    Serve.Protocol.render
      (Serve.Handler.handle handler
         (Result.get_ok (Json.of_string text)))
  in
  Alcotest.(check (option string)) "reason" (Some "deadline")
    (error_reason (expect_error "deadline" canonical));
  Alcotest.(check bool) "same error" true
    (without_elapsed canonical = without_elapsed generic)

(* Words allocated by [f ()], minor and major, less the promotions
   counted in both. *)
let allocated f =
  let m0 = Gc.minor_words () and _, p0, j0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let m1 = Gc.minor_words () and _, p1, j1 = Gc.counters () in
  m1 -. m0 +. (j1 -. j0) -. (p1 -. p0)

(* The canonical route must not build the tree: a 4096-transition
   batch allocates at most half the words of parse, handle, render. *)
let test_canonical_allocation () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let model =
    Powermodel.Model.build ~max_size:8 (Circuits.Adder.circuit ~bits:4)
  in
  let meta =
    ok_or_fail "save"
      (Store.save ~path:(Filename.concat dir "c.cfpm") model)
  in
  let inputs = meta.Store.inputs in
  let rng = Random.State.make [| 7 |] in
  let bits () =
    String.init inputs (fun _ -> if Random.State.bool rng then '1' else '0')
  in
  let text =
    Json.to_string ~pretty:false
      (Json.Obj
         [
           ("id", Json.Int 1);
           ("op", Json.String "eval_batch");
           ("model", Json.String "c.cfpm");
           ( "transitions",
             Json.List
               (List.init 4096 (fun _ ->
                    Json.List [ Json.String (bits ()); Json.String (bits ()) ]))
           );
         ])
  in
  let h = Serve.Handler.create ~jobs:1 (Serve.Cache.create ~root:dir ()) in
  let generic () =
    Serve.Protocol.render
      (Serve.Handler.handle h (Result.get_ok (Json.of_string text)))
  in
  let canonical () = Serve.Handler.handle_string h text in
  (* warm: the load and the leaf strings belong to no request *)
  Alcotest.(check string) "same answer" (generic ()) (canonical ());
  let g = allocated generic and c = allocated canonical in
  if c > g /. 2.0 then
    Alcotest.failf "canonical route allocated %.0f words, generic %.0f" c g

let suite =
  [
    Alcotest.test_case "operations answer correctly" `Quick test_ops_answer;
    Alcotest.test_case "unknown op is a validation error" `Quick
      test_unknown_op;
    Alcotest.test_case "malformed request, connection survives" `Quick
      test_malformed_then_healthy;
    Alcotest.test_case "socket and local responses are byte-identical"
      `Quick test_byte_identity;
    Alcotest.test_case "deadline overrun is typed and non-fatal" `Quick
      test_deadline_overrun;
    Alcotest.test_case "overload sheds with a typed error" `Quick
      test_overload_shed;
    Alcotest.test_case "injected request faults answer typed errors" `Quick
      test_fault_injection;
    Alcotest.test_case "injected store faults are not cached" `Quick
      test_store_read_fault;
    Alcotest.test_case "corrupt artifact cannot take the server down"
      `Quick test_corrupt_artifact;
    Alcotest.test_case "model paths cannot escape the root" `Quick
      test_path_escape;
    Alcotest.test_case "cache evicts over the byte ceiling" `Quick
      test_cache_eviction;
    Alcotest.test_case "cache metrics track internal counters" `Quick
      test_cache_metrics_parity;
    Alcotest.test_case "worst dispatches add, pbo and both methods" `Quick
      test_worst_methods;
    Alcotest.test_case "worst pbo without a resolver is a typed error"
      `Quick test_worst_pbo_needs_resolver;
    Alcotest.test_case "worst meets the deadline under eval traffic"
      `Quick test_worst_meets_deadline_under_load;
    Alcotest.test_case "concurrent analysis answers the sequential bytes"
      `Quick test_concurrent_analysis_identity;
    Alcotest.test_case "deadline budgets do not leak across requests"
      `Quick test_deadline_budget_does_not_leak;
    Alcotest.test_case "graceful stop drains and unlinks" `Quick
      test_graceful_stop;
    Alcotest.test_case "TCP round trips are prompt and byte-identical"
      `Quick test_tcp_round_trips;
    Util.qtest ~count:40 "eval_batch answers match the reference route"
      batch_case eval_batch_matches_reference;
    Alcotest.test_case "canonical and pretty frames count and fault alike"
      `Quick test_route_parity;
    Alcotest.test_case "a canonical batch meets a spent deadline" `Quick
      test_canonical_deadline;
    Alcotest.test_case "a canonical batch allocates no request tree" `Quick
      test_canonical_allocation;
  ]

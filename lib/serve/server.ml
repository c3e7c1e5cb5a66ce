(* The socket front end.

   Threads, not domains: a worker spends its life blocked on sockets, so
   OS threads (which release the runtime lock while blocked) are the
   right concurrency primitive; the CPU-parallel work — batched
   evaluation — happens on the Parallel.Pool domains below the handler.

   Shutdown discipline: stop() must be callable from a signal handler,
   so it only flips an atomic and closes the listener (both async-safe);
   every lock-touching part of the drain — waking the workers, joining
   them — happens on the run() thread after its accept loop exits. *)

let m_connections = Obs.Metrics.metric "serve.connections"
let m_shed = Obs.Metrics.metric "serve.shed"

type config = {
  address : [ `Unix of string | `Tcp of string * int ];
  workers : int;
  max_pending : int;
  handler : Handler.t;
}

type t = {
  config : config;
  listener : Unix.file_descr;
  bound : Unix.sockaddr;
  pending : Unix.file_descr Queue.t;
  mutable idle : int;  (** workers currently waiting for a connection *)
  lock : Mutex.t;
  nonempty : Condition.t;
  stop_flag : bool Atomic.t;
}

let resource ?(context = []) what =
  Guard.Error.raise_ (Guard.Error.resource ~context what)

let create config =
  if config.workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  if config.max_pending < 0 then
    invalid_arg "Server.create: max_pending must be >= 0";
  let domain, addr =
    match config.address with
    | `Unix path ->
      (* a stale socket file from a killed server blocks bind; if it is a
         socket file, it is presumed garbage and removed *)
      (match (Unix.stat path).Unix.st_kind with
      | Unix.S_SOCK -> (try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } ->
            resource (Printf.sprintf "cannot resolve host %S" host)
          | h -> h.Unix.h_addr_list.(0)
          | exception Not_found ->
            resource (Printf.sprintf "cannot resolve host %S" host))
      in
      (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match
     (match config.address with
     | `Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | `Unix _ -> ());
     Unix.bind fd addr;
     Unix.listen fd (config.max_pending + config.workers + 16)
   with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    resource
      ~context:[ ("errno", Unix.error_message err) ]
      "cannot bind the server address");
  {
    config;
    listener = fd;
    bound = Unix.getsockname fd;
    pending = Queue.create ();
    idle = 0;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    stop_flag = Atomic.make false;
  }

let address t = t.bound
let stopping t = Atomic.get t.stop_flag

(* Only the flag: closing a live listener from another thread does not
   reliably wake a blocked accept/select on Linux and risks fd reuse.
   The accept loop polls the flag between short select timeouts (and a
   signal EINTRs the select anyway), so stop is observed within a
   fraction of a second; the listener is closed by run()'s drain. *)
let stop t = Atomic.set t.stop_flag true

(* ------------------------------------------------------------------ *)
(* Connection service (worker side).                                    *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let send_raw fd payload =
  match Protocol.write_frame fd payload with
  | () -> true
  | exception (Unix.Unix_error _ | Invalid_argument _) -> false

let send_error fd err =
  ignore (send_raw fd (Protocol.render (Protocol.error_response ~id:Json.Null err)))

(* One connection, many requests.  A request that fails inside the
   handler comes back as an error response (the handler is total); a
   stream-level failure — truncated frame, oversized length prefix —
   gets a best-effort error response and costs the connection, because
   the frame boundary is lost. *)
let serve_connection t fd =
  Obs.Metrics.incr m_connections;
  let stop () = Atomic.get t.stop_flag in
  let rec loop () =
    match Protocol.read_frame ~stop fd with
    | Protocol.Stopped | Protocol.Closed -> ()
    | Protocol.Frame payload ->
      if send_raw fd (Handler.handle_string t.config.handler payload) then
        loop ()
    | exception Guard.Error.Guarded e -> send_error fd e
    | exception Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> close_quietly fd) loop

let worker_loop t =
  let rec next () =
    Mutex.lock t.lock;
    let rec await () =
      if not (Queue.is_empty t.pending) then Some (Queue.pop t.pending)
      else if Atomic.get t.stop_flag then None
      else begin
        t.idle <- t.idle + 1;
        Condition.wait t.nonempty t.lock;
        t.idle <- t.idle - 1;
        await ()
      end
    in
    let job = await () in
    Mutex.unlock t.lock;
    match job with
    | None -> ()
    | Some fd ->
      serve_connection t fd;
      next ()
  in
  next ()

(* ------------------------------------------------------------------ *)
(* Accept loop + shedding (listener side).                              *)

let overloaded t =
  Guard.Error.resource
    ~context:
      [
        ("reason", "overloaded");
        ("max_pending", string_of_int t.config.max_pending);
      ]
    "server overloaded: connection shed, retry later"

(* The shed response is written from the accept loop, so it must never
   block behind a slow client: give the socket a short send timeout and
   treat failure as the client's problem. *)
let shed t fd =
  Obs.Metrics.incr m_shed;
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
   with Unix.Unix_error _ -> ());
  send_error fd (overloaded t);
  close_quietly fd

let run t =
  (* a peer that vanishes mid-write must surface as EPIPE (handled at
     the connection), not SIGPIPE (fatal to the process) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let workers =
    List.init t.config.workers (fun _ -> Thread.create worker_loop t)
  in
  let accept_one () =
    match Unix.accept t.listener with
    | fd, _ ->
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.0
       with Unix.Unix_error _ -> ());
      (* answers go out as soon as they are written, not after the
         client's delayed ACK *)
      (match t.config.address with
      | `Tcp _ -> (
        try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ())
      | `Unix _ -> ());
      let accepted =
        Mutex.lock t.lock;
        (* capacity = a waiting worker will take it now, or the bounded
           queue has room; beyond that the connection is shed — explicit
           backpressure instead of an unbounded backlog *)
        let ok = Queue.length t.pending < t.idle + t.config.max_pending in
        if ok then begin
          Queue.push fd t.pending;
          Condition.signal t.nonempty
        end;
        Mutex.unlock t.lock;
        ok
      in
      if not accepted then shed t fd
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      ()
    | exception Unix.Unix_error _ ->
      (* the listener died: nothing left to accept *)
      Atomic.set t.stop_flag true
  in
  let rec accept_loop () =
    if Atomic.get t.stop_flag then ()
    else begin
      (* a short select instead of a bare accept, so a stop() from
         another thread (or a signal handler) is honoured promptly even
         with no incoming connections *)
      (match Unix.select [ t.listener ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> accept_one ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> Atomic.set t.stop_flag true);
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.stop_flag true;
      (* drain: wake every worker; each finishes its queued and in-flight
         work (await() drains the queue before honouring stop) *)
      Mutex.lock t.lock;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.lock;
      List.iter Thread.join workers;
      (try Unix.close t.listener with Unix.Unix_error _ -> ());
      match t.config.address with
      | `Unix path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
      | `Tcp _ -> ())
    accept_loop

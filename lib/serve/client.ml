(* Blocking protocol client: connect, frame out, frame in. *)

type t = { fd : Unix.file_descr; mutable closed : bool }

let connect address =
  (* a server that drops the connection mid-write must be a typed error,
     not a fatal SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let domain, addr =
    match address with
    | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp (host, port) -> (
      match
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with
      | inet -> (Unix.PF_INET, Unix.ADDR_INET (inet, port))
      | exception (Not_found | Invalid_argument _) ->
        raise
          (Guard.Error.Guarded
             (Guard.Error.resource
                ~context:[ ("host", host) ]
                "cannot resolve server host")))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | () ->
    (* requests go out as soon as they are written, not after the
       server's delayed ACK *)
    (if domain = Unix.PF_INET then
       try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
    Ok { fd; closed = false }
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Guard.Error.resource
         ~context:[ ("errno", Unix.error_message err) ]
         "cannot connect to the power-query server")
  | exception Guard.Error.Guarded e -> Error e

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let request_raw t payload =
  match
    Protocol.write_frame t.fd payload;
    Protocol.read_frame t.fd
  with
  | Protocol.Frame response -> Ok response
  | Protocol.Closed | Protocol.Stopped ->
    Error
      (Guard.Error.resource ~context:[ ("reason", "disconnected") ]
         "server closed the connection")
  | exception Guard.Error.Guarded e -> Error e
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Guard.Error.resource
         ~context:[ ("errno", Unix.error_message err) ]
         "connection failed mid-request")

let request t json =
  match request_raw t (Protocol.render json) with
  | Error _ as e -> e
  | Ok response -> (
    match Json.of_string response with
    | Ok j -> Ok j
    | Error msg ->
      Error
        (Guard.Error.parse
           ~context:[ ("reason", "bad-response") ]
           (Printf.sprintf "response is not valid JSON: %s" msg)))

let with_connection address f =
  match connect address with
  | Error _ as e -> e
  | Ok t -> Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* Length-prefixed JSON framing.

   The 4-byte big-endian prefix keeps parsing trivial in any language and
   makes request boundaries explicit, so a malformed payload never
   desynchronizes the stream: the server can answer with a classified
   error and keep the connection.  The length ceiling is the same
   defensive bound the BLIF parser applies to netlists — a peer that
   declares a 2 GiB frame is hostile or broken, and either way the right
   answer is a typed Parse error, not an allocation. *)

let max_frame = 16 * 1024 * 1024

let write_all fd s = Ioutil.write_all fd s

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then
    invalid_arg
      (Printf.sprintf "Protocol.write_frame: %d bytes exceeds the %d limit" len
         max_frame);
  (* header and payload leave in one write: a separate 4-byte header
     write meets Nagle's algorithm and the peer's delayed ACK on TCP,
     which stalls every round trip by tens of milliseconds *)
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  write_all fd (Bytes.unsafe_to_string b)

type read = Frame of string | Closed | Stopped

(* Blocking read of exactly [n] bytes.  [at_boundary] distinguishes a
   clean EOF between frames (Closed) from a peer dying mid-frame, which
   is a truncation and classified as such. *)
let rec read_exactly fd buf pos n =
  if n = 0 then `Done
  else
    match Unix.read fd buf pos n with
    | 0 -> `Eof pos
    | k -> read_exactly fd buf (pos + k) (n - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      read_exactly fd buf pos n

let truncated what =
  Guard.Error.raise_
    (Guard.Error.parse ~context:[ ("reason", "truncated") ] what)

(* Wait until the descriptor is readable, polling [stop] so a draining
   server can abandon an idle connection between frames. *)
let rec wait_readable ?stop fd =
  let interesting =
    match Unix.select [ fd ] [] [] 0.25 with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  if interesting then `Readable
  else
    match stop with
    | Some f when f () -> `Stopped
    | _ -> wait_readable ?stop fd

let read_frame ?stop fd =
  match wait_readable ?stop fd with
  | `Stopped -> Stopped
  | `Readable -> (
    let hdr = Bytes.create 4 in
    match read_exactly fd hdr 0 4 with
    | `Eof 0 -> Closed
    | `Eof _ -> truncated "connection closed inside a frame header"
    | `Done ->
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame then
        Guard.Error.raise_
          (Guard.Error.parse
             ~context:[ ("reason", "oversized"); ("len", string_of_int len) ]
             (Printf.sprintf "frame length %d exceeds the %d-byte limit" len
                max_frame))
      else
        let payload = Bytes.create len in
        (match read_exactly fd payload 0 len with
        | `Eof _ -> truncated "connection closed inside a frame payload"
        | `Done -> Frame (Bytes.unsafe_to_string payload)))

(* ------------------------------------------------------------------ *)
(* Response shaping.                                                    *)

let ok_response ~id result =
  Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ]

let error_response ~id err =
  Json.Obj
    [ ("id", id); ("ok", Json.Bool false); ("error", Guard.Error.to_json err) ]

let response_error resp =
  match (Json.member "ok" resp, Json.member "error" resp) with
  | Some (Json.Bool false), Some err ->
    let str k =
      match Json.member k err with Some (Json.String s) -> s | _ -> ""
    in
    let context =
      match Json.member "context" err with
      | Some (Json.Obj members) ->
        List.filter_map
          (fun (k, v) ->
            match v with Json.String s -> Some (k, s) | _ -> None)
          members
      | _ -> []
    in
    Some (str "kind", str "what", context)
  | _ -> None

let render j = Json.to_string ~pretty:false j

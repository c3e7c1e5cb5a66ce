(* Closed-loop load generator: [connections] client threads in this one
   process, each with its own connection, each sending its next request
   only after the previous answer arrived.  Requests are dealt from one
   shared counter, so the mix a window sees is the deck's order whatever
   the interleaving.  Latency is timed per request at the client. *)

type request = {
  what : string;  (* label for failure notes *)
  bytes : string;  (* the frame payload sent *)
  expected : string;  (* the reference answer, byte for byte *)
  expected_error : bool;  (* the reference answer is an error response *)
}

let request ~what ~bytes ~expected =
  let expected_error =
    match Json.of_string expected with
    | Ok j -> Serve.Protocol.response_error j <> None
    | Error _ -> true
  in
  { what; bytes; expected; expected_error }

(* One answer: an error response is a failed operation even when the
   reference gave the same error, so a fault that breaks the server and
   the in-process reference alike still shows.  An answer equal to an
   error reference is itself that error, so the flag is all it takes. *)
let check tally r answer =
  match answer with
  | Ok actual when r.expected_error ->
    Tally.fail tally
      (Printf.sprintf "%s: error response %s" r.what (Tally.clip actual))
  | _ -> Tally.check tally ~what:r.what ~expected:r.expected answer

type result = {
  latencies_ms : float array;  (* one per answered request *)
  elapsed_s : float;
}

let now = Unix.gettimeofday

(* The window closes once [seconds] have passed and at least
   [min_samples] latencies are in, or at three times [seconds]
   regardless. *)
let run ~address ~connections ~seconds ?(min_samples = 0) tally (deck : request array) =
  if Array.length deck = 0 then invalid_arg "Loadgen.run: empty deck";
  let max_seconds = 3.0 *. seconds in
  let next = Atomic.make 0 in
  let answered = Atomic.make 0 in
  let t0 = now () in
  let finished () =
    let dt = now () -. t0 in
    (dt >= seconds && Atomic.get answered >= min_samples) || dt >= max_seconds
  in
  let worker samples =
    let conn = ref None in
    let drop () =
      Option.iter Serve.Client.close !conn;
      conn := None
    in
    while not (finished ()) do
      match !conn with
      | None -> (
        match Serve.Client.connect address with
        | Ok c -> conn := Some c
        | Error e ->
          Tally.fail tally ("connect: " ^ Guard.Error.to_string e);
          Thread.delay 0.05)
      | Some c ->
        let r = deck.(Atomic.fetch_and_add next 1 mod Array.length deck) in
        let s = now () in
        let answer = Serve.Client.request_raw c r.bytes in
        let e = now () in
        (match answer with
        | Ok _ ->
          samples := ((e -. s) *. 1000.0) :: !samples;
          Atomic.incr answered
        | Error _ -> drop ());
        check tally r (Result.map_error Guard.Error.to_string answer)
    done;
    drop ()
  in
  let buffers = Array.init connections (fun _ -> ref []) in
  let threads = Array.map (fun b -> Thread.create worker b) buffers in
  Array.iter Thread.join threads;
  {
    latencies_ms = Array.of_list (List.concat_map (fun b -> !b) (Array.to_list buffers));
    elapsed_s = now () -. t0;
  }

(* Deterministic stream sources.

   The generator keeps the Markov chain's state (the previous vector)
   across phase boundaries; resume cannot serialize the SplitMix64
   state, so [skip] regenerates and discards — same draws, same
   remainder. *)

type phase = { sp : float; st : float; count : int }

type item = Vector of bool array | Malformed of string

type gen = {
  prng : Stimulus.Prng.t;
  phases : (float * float * int) array;  (** (p01, p10, count) *)
  sp0 : float;  (** the first phase's sp, where the first vector is drawn *)
  mutable phase : int;
  mutable emitted : int;  (** vectors emitted within the current phase *)
  mutable prev : bool array option;
}

type file = { ic : in_channel; mutable eof : bool; mutable file_closed : bool }

type body = Gen of gen | File of file

type t = { width : int; body : body }

let bits t = t.width

let generator ~seed ~bits phases =
  let ( let* ) = Result.bind in
  if bits < 1 then
    Error (Guard.Error.validation "generator source: bits must be >= 1")
  else if phases = [] then
    Error (Guard.Error.validation "generator source: empty phase list")
  else
    let* rates =
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          if p.count < 1 then
            Error (Guard.Error.validation "generator source: phase count must be >= 1")
          else
            let* p01, p10 = Stimulus.Generator.rates_checked ~sp:p.sp ~st:p.st in
            Ok ((p01, p10, p.count) :: acc))
        (Ok []) phases
    in
    let phase_arr = Array.of_list (List.rev rates) in
    Ok
      {
        width = bits;
        body =
          Gen
            {
              prng = Stimulus.Prng.create seed;
              phases = phase_arr;
              sp0 = (List.hd phases).sp;
              phase = 0;
              emitted = 0;
              prev = None;
            };
      }

let of_file ~path ~bits =
  if bits < 1 then
    Error (Guard.Error.validation "file source: bits must be >= 1")
  else
    match open_in path with
    | ic -> Ok { width = bits; body = File { ic; eof = false; file_closed = false } }
    | exception Sys_error msg ->
      Error
        (Guard.Error.resource
           ~context:[ ("path", path) ]
           ("cannot open vector file: " ^ msg))

let gen_next width g =
  if g.phase >= Array.length g.phases then None
  else begin
    let p01, p10, count = g.phases.(g.phase) in
    let v =
      match g.prev with
      | None -> Stimulus.Generator.first g.prng ~bits:width ~sp:g.sp0
      | Some prev -> Stimulus.Generator.step g.prng ~p01 ~p10 prev
    in
    g.prev <- Some v;
    g.emitted <- g.emitted + 1;
    if g.emitted >= count then begin
      g.phase <- g.phase + 1;
      g.emitted <- 0
    end;
    Some (Vector v)
  end

let file_next width f =
  if f.eof || f.file_closed then None
  else
    match input_line f.ic with
    | line ->
      if
        String.length line = width
        && String.for_all (fun c -> c = '0' || c = '1') line
      then Some (Vector (Array.init width (fun i -> line.[i] = '1')))
      else Some (Malformed line)
    | exception End_of_file ->
      f.eof <- true;
      None

let next t =
  match t.body with
  | Gen g -> gen_next t.width g
  | File f -> file_next t.width f

let skip t n =
  for _ = 1 to n do
    ignore (next t)
  done

let close t =
  match t.body with
  | Gen _ -> ()
  | File f ->
    if not f.file_closed then begin
      f.file_closed <- true;
      close_in_noerr f.ic
    end

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
  mutable started : bool;  (** whether [prev] holds a vector yet *)
  prev : int array;  (** the previous vector's words *)
}

type file = { ic : in_channel; mutable eof : bool; mutable file_closed : bool }

type body = Gen of gen | File of file

type block = {
  vectors : Stimulus.Block.t;
  mutable records : int;
  mutable malformed : (int * string) list;
}

type t = { width : int; body : body; one : block }

let bits t = t.width

let make_block width capacity =
  {
    vectors = Stimulus.Block.create ~width ~capacity;
    records = 0;
    malformed = [];
  }

let create_block t ~capacity = make_block t.width capacity
let make width body = { width; body; one = make_block width 1 }

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
      (make bits
         (Gen
            {
              prng = Stimulus.Prng.create seed;
              phases = phase_arr;
              sp0 = (List.hd phases).sp;
              phase = 0;
              emitted = 0;
              started = false;
              prev = Array.make (Stimulus.Block.stride_of ~width:bits) 0;
            }))

let of_file ~path ~bits =
  if bits < 1 then
    Error (Guard.Error.validation "file source: bits must be >= 1")
  else
    match open_in path with
    | ic -> Ok (make bits (File { ic; eof = false; file_closed = false }))
    | exception Sys_error msg ->
      Error
        (Guard.Error.resource
           ~context:[ ("path", path) ]
           ("cannot open vector file: " ^ msg))

(* Draw up to [room] vectors into [vb], phase by phase. *)
let gen_fill g vb room =
  let room = ref room in
  while !room > 0 && g.phase < Array.length g.phases do
    let p01, p10, count = g.phases.(g.phase) in
    let m = Int.min !room (count - g.emitted) in
    for _ = 1 to m do
      if g.started then Stimulus.Generator.draw_step g.prng ~p01 ~p10 ~prev:g.prev vb
      else begin
        Stimulus.Generator.draw_first g.prng ~sp:g.sp0 vb;
        g.started <- true
      end;
      Stimulus.Block.store vb (Stimulus.Block.length vb - 1) g.prev
    done;
    room := !room - m;
    g.emitted <- g.emitted + m;
    if g.emitted >= count then begin
      g.phase <- g.phase + 1;
      g.emitted <- 0
    end
  done

(* Parse up to [capacity] lines into [b]; a malformed line keeps its
   place as the count of vectors before it. *)
let file_fill f b capacity =
  let bad = ref [] in
  while b.records < capacity && not (f.eof || f.file_closed) do
    match input_line f.ic with
    | line ->
      if not (Stimulus.Block.parse_into b.vectors line) then
        bad := (Stimulus.Block.length b.vectors, line) :: !bad;
      b.records <- b.records + 1
    | exception End_of_file -> f.eof <- true
  done;
  b.malformed <- List.rev !bad

let fill t b =
  let vb = b.vectors in
  Stimulus.Block.clear vb;
  b.records <- 0;
  b.malformed <- [];
  let capacity = Stimulus.Block.capacity vb in
  match t.body with
  | Gen g ->
    gen_fill g vb capacity;
    b.records <- Stimulus.Block.length vb
  | File f -> file_fill f b capacity

let next t =
  fill t t.one;
  match t.one.malformed with
  | (_, line) :: _ -> Some (Malformed line)
  | [] ->
    if Stimulus.Block.length t.one.vectors = 1 then
      Some (Vector (Stimulus.Block.to_bools t.one.vectors 0))
    else None

let skip t n =
  let left = ref n in
  while !left > 0 do
    let capacity = Int.min !left 512 in
    let b = make_block t.width capacity in
    fill t b;
    left := if b.records < capacity then 0 else !left - capacity
  done

let close t =
  match t.body with
  | Gen _ -> ()
  | File f ->
    if not f.file_closed then begin
      f.file_closed <- true;
      close_in_noerr f.ic
    end

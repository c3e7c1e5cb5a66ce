(* Failure accounting: every operation the benchmark attempts is counted,
   and every wrong answer, error response or refused connection is one
   failed operation.  Nothing here raises, so a bad answer can never
   abort a run silently; the first few failures are kept for the log. *)

type t = {
  mutex : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* newest first, at most [max_notes] *)
}

let max_notes = 8

let create () =
  { mutex = Mutex.create (); attempted = 0; failed = 0; notes = [] }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let ok t = locked t (fun () -> t.attempted <- t.attempted + 1)

let fail t note =
  locked t (fun () ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if List.length t.notes < max_notes then t.notes <- note :: t.notes)

let attempted t = locked t (fun () -> t.attempted)
let failed t = locked t (fun () -> t.failed)
let notes t = locked t (fun () -> List.rev t.notes)

let merge ~into t =
  locked t (fun () ->
      let a = t.attempted and f = t.failed and n = List.rev t.notes in
      locked into (fun () ->
          into.attempted <- into.attempted + a;
          into.failed <- into.failed + f;
          List.iter
            (fun note ->
              if List.length into.notes < max_notes then
                into.notes <- note :: into.notes)
            n))

let clip s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

(* One answer against its reference: [Error] is a transport failure
   (refused connection, dropped frame), anything else must match the
   expected bytes exactly. *)
let check t ~what ~expected = function
  | Error msg -> fail t (Printf.sprintf "%s: %s" what (clip msg))
  | Ok actual ->
    if String.equal actual expected then ok t
    else fail t (Printf.sprintf "%s: got %s" what (clip actual))

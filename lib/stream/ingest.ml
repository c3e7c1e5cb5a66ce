(* Bounded producer/consumer queue: mutex + two conditions.  Every
   critical section below is plain lock/unlock: nothing between the two
   can raise (the waits, the queue operations and building an error
   value do not), so no unwinding closure is needed. *)

type policy = Block | Shed

type 'a t = {
  policy : policy;
  capacity : int;
  items : 'a Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable is_closed : bool;
  mutable shed_count : int;
}

let create ?(capacity = 1024) policy =
  if capacity < 1 then invalid_arg "Ingest.create: capacity must be >= 1";
  {
    policy;
    capacity;
    items = Queue.create ();
    lock = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    is_closed = false;
    shed_count = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  let r = f () in
  Mutex.unlock t.lock;
  r

let overloaded t =
  Guard.Error.resource
    ~context:
      [ ("reason", "overloaded"); ("capacity", string_of_int t.capacity) ]
    "ingest queue full, item shed"

let push t x =
  locked t (fun () ->
      if t.is_closed then
        Error (Guard.Error.validation "push to a closed ingest queue")
      else begin
        (match t.policy with
        | Block ->
          while Queue.length t.items >= t.capacity && not t.is_closed do
            Condition.wait t.not_full t.lock
          done
        | Shed -> ());
        if t.is_closed then
          Error (Guard.Error.validation "push to a closed ingest queue")
        else if Queue.length t.items >= t.capacity then begin
          t.shed_count <- t.shed_count + 1;
          Error (overloaded t)
        end
        else begin
          Queue.add x t.items;
          Condition.signal t.not_empty;
          Ok ()
        end
      end)

let pop t =
  locked t (fun () ->
      while Queue.is_empty t.items && not t.is_closed do
        Condition.wait t.not_empty t.lock
      done;
      if Queue.is_empty t.items then None
      else begin
        let x = Queue.pop t.items in
        Condition.signal t.not_full;
        Some x
      end)

let close t =
  locked t (fun () ->
      t.is_closed <- true;
      Condition.broadcast t.not_empty;
      Condition.broadcast t.not_full)

let closed t = locked t (fun () -> t.is_closed)
let length t = locked t (fun () -> Queue.length t.items)
let sheds t = locked t (fun () -> t.shed_count)

(* Byte-bounded LRU over loaded artifacts.

   Recency is a monotonic clock stamped on every hit; eviction scans for
   the minimum stamp.  The table is small (a server holds tens of models,
   not thousands), so the O(n) victim scan is simpler and no slower in
   practice than threading an intrusive list through the entries. *)

let m_hits = Obs.Metrics.metric "serve.cache_hits"
let m_misses = Obs.Metrics.metric "serve.cache_misses"
let m_evictions = Obs.Metrics.metric "serve.cache_evictions"

type entry = {
  loaded : Store.artifact;
  bytes : int;
  leaf_text : string array option Atomic.t;
}

(* Racing first calls each render the same table and the last publish
   wins: identical values, so harmless, and a reader only ever sees a
   whole table. *)
let leaf_text entry =
  match Atomic.get entry.leaf_text with
  | Some text -> text
  | None ->
    let program =
      Powermodel.Model.compiled_program entry.loaded.Store.compiled
    in
    let leaves = (Dd.Compiled.to_repr program).Dd.Compiled.r_leaves in
    let text = Array.map Json.float_repr leaves in
    Atomic.set entry.leaf_text (Some text);
    text

type slot = { entry : entry; mutable stamp : int }

type t = {
  byte_ceiling : int option;
  root : string option;
  table : (string, slot) Hashtbl.t;
  mutable clock : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable loaded_hook : (string -> Store.meta -> unit) option;
  lock : Mutex.t;
}

let create ?byte_ceiling ?root () =
  (match byte_ceiling with
  | Some c when c <= 0 -> invalid_arg "Cache.create: byte_ceiling must be > 0"
  | _ -> ());
  {
    byte_ceiling;
    root;
    table = Hashtbl.create 16;
    clock = 0;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    loaded_hook = None;
    lock = Mutex.create ();
  }

let on_load t hook = t.loaded_hook <- Some hook

let resolve t name =
  match t.root with
  | None -> Ok name
  | Some root ->
    let escapes =
      name = ""
      || (not (Filename.is_relative name))
      || List.exists
           (fun part -> part = Filename.parent_dir_name)
           (String.split_on_char '/' name)
    in
    if escapes then
      Error
        (Guard.Error.validation
           ~context:[ ("model", name); ("root", root) ]
           "model path escapes the store root")
    else Ok (Filename.concat root name)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Drop minimum-stamp slots until we are back under the ceiling.  [keep]
   (the slot just inserted for the caller) is never the victim, so the
   returned entry survives even when it alone exceeds the ceiling. *)
let evict_over_ceiling t ~keep =
  match t.byte_ceiling with
  | None -> ()
  | Some ceiling ->
    let continue_ = ref true in
    while t.bytes > ceiling && !continue_ do
      let victim = ref None in
      Hashtbl.iter
        (fun path slot ->
          if path <> keep then
            match !victim with
            | Some (_, best) when best.stamp <= slot.stamp -> ()
            | _ -> victim := Some (path, slot))
        t.table;
      match !victim with
      | None -> continue_ := false
      | Some (path, slot) ->
        Hashtbl.remove t.table path;
        t.bytes <- t.bytes - slot.entry.bytes;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr m_evictions
    done

let find_or_load t name =
  match resolve t name with
  | Error _ as e -> e
  | Ok path -> (
    let hit =
      locked t (fun () ->
          match Hashtbl.find_opt t.table path with
          | Some slot ->
            t.clock <- t.clock + 1;
            slot.stamp <- t.clock;
            t.hits <- t.hits + 1;
            Obs.Metrics.incr m_hits;
            Some slot.entry
          | None -> None)
    in
    match hit with
    | Some entry -> Ok entry
    | None -> (
      (* the load runs unlocked: a cold artifact read never stalls hits *)
      match Store.load_compiled path with
      | Error _ as e -> e
      | Ok loaded ->
        let entry =
          {
            loaded;
            bytes = Store.approx_bytes loaded.Store.meta;
            leaf_text = Atomic.make None;
          }
        in
        let entry, fresh =
          locked t (fun () ->
              match Hashtbl.find_opt t.table path with
              | Some slot ->
                (* a racing request loaded it first; drop our copy *)
                t.clock <- t.clock + 1;
                slot.stamp <- t.clock;
                t.hits <- t.hits + 1;
                Obs.Metrics.incr m_hits;
                (slot.entry, false)
              | None ->
                t.clock <- t.clock + 1;
                Hashtbl.add t.table path { entry; stamp = t.clock };
                t.bytes <- t.bytes + entry.bytes;
                t.misses <- t.misses + 1;
                Obs.Metrics.incr m_misses;
                evict_over_ceiling t ~keep:path;
                (entry, true))
        in
        if fresh then
          Option.iter
            (fun hook -> hook name entry.loaded.Store.meta)
            t.loaded_hook;
        Ok entry))

let stats t =
  locked t (fun () ->
      Json.Obj
        [
          ("entries", Json.Int (Hashtbl.length t.table));
          ("bytes", Json.Int t.bytes);
          ( "byte_ceiling",
            match t.byte_ceiling with Some c -> Json.Int c | None -> Json.Null
          );
          ("hits", Json.Int t.hits);
          ("misses", Json.Int t.misses);
          ("evictions", Json.Int t.evictions);
        ])

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.bytes <- 0)

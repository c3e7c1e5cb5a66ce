(* Self time per span name from a Chrome trace-event object (the shape
   Obs.Trace.export and `cfpm ... --trace FILE` produce).

   A span's self time is its duration minus the durations of its direct
   children.  Nesting is recovered per thread id from the timestamps: a
   span is the child of the innermost open span whose interval contains
   it. *)

type event = { name : string; tid : int; ts : float; dur : float }

type total = { count : int; total_s : float; self_s : float }

let events_of_json j =
  let num = function
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
    List.filter_map
      (fun ev ->
        match
          ( Json.member "name" ev,
            num (Json.member "ts" ev),
            num (Json.member "dur" ev),
            Json.member "tid" ev )
        with
        | Some (Json.String name), Some ts, Some dur, tid ->
          let tid = match tid with Some (Json.Int t) -> t | _ -> 0 in
          Some { name; tid; ts; dur }
        | _ -> None)
      evs
  | _ -> []

(* Microsecond timestamps are printed as floats; allow rounding slack
   when testing containment. *)
let eps = 1e-3

let self_times events =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let l = Option.value (Hashtbl.find_opt by_tid e.tid) ~default:[] in
      Hashtbl.replace by_tid e.tid (e :: l))
    events;
  let totals = Hashtbl.create 32 in
  let add name ~dur ~self =
    let t =
      Option.value (Hashtbl.find_opt totals name)
        ~default:{ count = 0; total_s = 0.0; self_s = 0.0 }
    in
    Hashtbl.replace totals name
      {
        count = t.count + 1;
        total_s = t.total_s +. (dur /. 1e6);
        self_s = t.self_s +. (self /. 1e6);
      }
  in
  Hashtbl.iter
    (fun _ evs ->
      let evs =
        List.sort
          (fun a b ->
            match Float.compare a.ts b.ts with
            | 0 -> Float.compare b.dur a.dur
            | c -> c)
          evs
        |> Array.of_list
      in
      let child = Array.make (Array.length evs) 0.0 in
      let contains p e = e.ts +. e.dur <= p.ts +. p.dur +. eps in
      let rec place stack i =
        match stack with
        | p :: rest when not (contains evs.(p) evs.(i)) -> place rest i
        | _ -> stack
      in
      let stack = ref [] in
      Array.iteri
        (fun i e ->
          stack := place !stack i;
          (match !stack with
          | p :: _ -> child.(p) <- child.(p) +. e.dur
          | [] -> ());
          stack := i :: !stack)
        evs;
      Array.iteri
        (fun i e -> add e.name ~dur:e.dur ~self:(Float.max 0.0 (e.dur -. child.(i))))
        evs)
    by_tid;
  Hashtbl.fold (fun name t acc -> (name, t) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let self_s totals name =
  match List.assoc_opt name totals with Some t -> t.self_s | None -> 0.0

let total_s totals name =
  match List.assoc_opt name totals with Some t -> t.total_s | None -> 0.0

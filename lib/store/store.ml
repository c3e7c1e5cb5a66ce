(* Versioned, CRC-framed binary model store.

   The artifact carries the model's compiled triple program (which is the
   reachable ADD itself: DFS numbering with sharing, every edge strictly
   deeper in the level order,
   children referenced by triple offset or [lnot leaf_index]) plus a JSON
   header of everything else a server needs — circuit identity, variable
   order, default query statistics, build stats.  Loading re-validates
   every byte (magic, version, per-section CRC-32, then the structural
   invariants of the arrays) before the program is levelized, so a
   damaged artifact is always a classified [Guard.Error], never a crash
   and never a silently wrong model.  A compiled load stops there; only
   [load] goes on to rebuild the diagram.

   Layout: 8-byte magic, u32 BE version, then sections
   [tag(4) | u32 BE len | payload | u32 BE crc32(tag+len+payload)] in the
   fixed order HEAD, CODE, LEAF, END (END is the zero-length completeness
   marker: a file that ends cleanly but early is still classified as
   truncated). *)

let magic = "CFPMSTOR"
let format_version = 1
let format_name = "cfpm-store/1"

let m_saves = Obs.Metrics.metric "store.saves"
let m_loads = Obs.Metrics.metric "store.loads"
let m_load_failures = Obs.Metrics.metric "store.load_failures"

type meta = {
  circuit : string;
  inputs : int;
  strategy : Dd.Approx.strategy;
  weighting : Dd.Approx.weighting;
  max_size : int option;
  reorder : Powermodel.Reorder.policy;
  exact : bool;
  order : int array;
  default_sp : float;
  default_st : float;
  nodes : int;
  leaves : int;
  stats : Powermodel.Model.build_stats;
}

(* ------------------------------------------------------------------ *)
(* Failure classification.                                              *)

let fail ?section ~reason ~path what =
  let context =
    [ ("file", path); ("reason", reason) ]
    @ match section with None -> [] | Some s -> [ ("section", s) ]
  in
  Error (Guard.Error.parse ~context what)

let reason e = Guard.Error.context_value e "reason"

(* ------------------------------------------------------------------ *)
(* Strategy / weighting / policy names (stable, shared with the CLI).   *)

let strategy_name = function
  | Dd.Approx.Average -> "average"
  | Dd.Approx.Upper_bound -> "upper"
  | Dd.Approx.Lower_bound -> "lower"

let strategy_of_name = function
  | "average" -> Some Dd.Approx.Average
  | "upper" -> Some Dd.Approx.Upper_bound
  | "lower" -> Some Dd.Approx.Lower_bound
  | _ -> None

let weighting_name = function
  | Dd.Approx.Unweighted -> "unweighted"
  | Dd.Approx.Uniform_mass -> "uniform-mass"
  | Dd.Approx.Robust _ -> "robust"

let weighting_of_name = function
  | "unweighted" -> Some Dd.Approx.Unweighted
  | "uniform-mass" -> Some Dd.Approx.Uniform_mass
  | "robust" -> Some (Dd.Approx.Robust [])
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Binary primitives (big-endian, fixed width).                         *)

let add_u32 buf v = Buffer.add_int32_be buf (Int32.of_int v)
let add_i32 = add_u32
let add_f64 buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)

let get_u32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let get_i32 s pos =
  let v = get_u32 s pos in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let get_f64 s pos =
  let hi = Int64.of_int (get_u32 s pos) in
  let lo = Int64.of_int (get_u32 s (pos + 4)) in
  Int64.float_of_bits (Int64.logor (Int64.shift_left hi 32) lo)

(* ------------------------------------------------------------------ *)
(* Section framing.                                                     *)

let add_section buf tag payload =
  assert (String.length tag = 4);
  let hdr = Buffer.create 8 in
  Buffer.add_string hdr tag;
  add_u32 hdr (String.length payload);
  let framed = Buffer.contents hdr ^ payload in
  Buffer.add_string buf framed;
  add_u32 buf (Journal.crc32 framed)

(* Split the byte stream after magic+version into its CRC-checked
   sections.  Distinguishes the tail being lost (truncated) from a
   present-but-damaged section (corrupt, CRC named by tag). *)
let parse_sections ~path data pos0 =
  let len = String.length data in
  let rec walk pos acc =
    if pos = len then Ok (List.rev acc)
    else if len - pos < 8 then
      fail ~reason:"truncated" ~path "artifact ends inside a section header"
    else
      let tag = String.sub data pos 4 in
      let plen = get_u32 data (pos + 4) in
      if plen < 0 || plen > len - pos - 8 then
        fail ~reason:"truncated" ~path
          (Printf.sprintf "section %S payload extends past end of file" tag)
      else if len - pos - 8 - plen < 4 then
        fail ~reason:"truncated" ~path
          (Printf.sprintf "artifact ends inside section %S checksum" tag)
      else
        let framed = String.sub data pos (8 + plen) in
        let crc = get_u32 data (pos + 8 + plen) in
        if crc <> Journal.crc32 framed then
          fail ~section:tag ~reason:"corrupt" ~path
            (Printf.sprintf "section %S fails its CRC-32 check" tag)
        else
          walk (pos + 8 + plen + 4)
            ((tag, String.sub data (pos + 8) plen) :: acc)
  in
  walk pos0 []

(* ------------------------------------------------------------------ *)
(* Header (de)serialization.                                            *)

let stats_json (s : Powermodel.Model.build_stats) =
  Json.Obj
    [
      ("gates", Json.Int s.gates);
      ("gates_done", Json.Int s.gates_done);
      ("skipped", Json.Int s.skipped);
      ("approx_calls", Json.Int s.approx_calls);
      ("peak_size", Json.Int s.peak_size);
      ("final_size", Json.Int s.final_size);
      ("bdd_nodes", Json.Int s.bdd_nodes);
      ("cpu_seconds", Json.Float s.cpu_seconds);
      ("wall_seconds", Json.Float s.wall_seconds);
      ("degrade_steps", Json.Int s.degrade_steps);
      ("sift_swaps", Json.Int s.sift_swaps);
      ("reorder_gain", Json.Int s.reorder_gain);
    ]

let meta_json meta =
  Json.Obj
    [
      ("format", Json.String format_name);
      ("circuit", Json.String meta.circuit);
      ("inputs", Json.Int meta.inputs);
      ("strategy", Json.String (strategy_name meta.strategy));
      ("weighting", Json.String (weighting_name meta.weighting));
      ( "max_size",
        match meta.max_size with Some m -> Json.Int m | None -> Json.Null );
      ("reorder", Json.String (Powermodel.Reorder.to_string meta.reorder));
      ("exact", Json.Bool meta.exact);
      ( "order",
        Json.List (Array.to_list (Array.map (fun v -> Json.Int v) meta.order))
      );
      ( "defaults",
        Json.Obj
          [
            ("sp", Json.Float meta.default_sp);
            ("st", Json.Float meta.default_st);
          ] );
      ("nodes", Json.Int meta.nodes);
      ("leaves", Json.Int meta.leaves);
      ("stats", stats_json meta.stats);
    ]

let head_json meta = Json.to_string ~pretty:false (meta_json meta)

(* Every member access below is total: a header that parses as JSON but
   has a missing or mistyped member is classified corrupt, not a crash. *)
let head_of_json ~path text =
  let ( let* ) = Result.bind in
  let corrupt what = fail ~section:"HEAD" ~reason:"corrupt" ~path what in
  match Json.of_string text with
  | Error e -> corrupt (Printf.sprintf "header is not valid JSON: %s" e)
  | Ok j -> (
    let str k = match Json.member k j with Some (Json.String s) -> Some s | _ -> None in
    let int k = Option.bind (Json.member k j) Json.to_int in
    let flt o k = match o with
      | Some obj -> Option.bind (Json.member k obj) Json.to_float
      | None -> None
    in
    match str "format" with
    | Some f when f <> format_name ->
      fail ~reason:"version-skew" ~path
        (Printf.sprintf "header declares format %S, this reader expects %S" f
           format_name)
    | None -> corrupt "header lacks a format member"
    | Some _ -> (
      let stats_j = Json.member "stats" j in
      let sint k = Option.bind stats_j (fun s -> Option.bind (Json.member k s) Json.to_int) in
      let sflt k = Option.bind stats_j (fun s -> Option.bind (Json.member k s) Json.to_float) in
      let defaults = Json.member "defaults" j in
      (* Exactness is stored twice: the [exact] member (what a compiled
         load answers [worst add] from) and [approx_calls = 0] (what
         {!Powermodel.Model.is_exact} reads on a rebuilt model).  Both
         must be there and agree, so the two routes cannot disagree. *)
      let exactness () =
        match (Json.member "exact" j, sint "approx_calls") with
        | Some (Json.Bool exact), Some calls when exact = (calls = 0) ->
          Ok (exact, calls)
        | Some (Json.Bool _), Some _ ->
          corrupt "header's exact flag disagrees with its approx_calls"
        | _ -> corrupt "header lacks a boolean exact or an approx_calls stat"
      in
      let order =
        match Json.member "order" j with
        | Some (Json.List l) ->
          let ints = List.filter_map Json.to_int l in
          if List.length ints = List.length l then Some (Array.of_list ints)
          else None
        | _ -> None
      in
      match
        ( str "circuit", int "inputs",
          Option.bind (str "strategy") strategy_of_name,
          Option.bind (str "weighting") weighting_of_name,
          Option.bind (str "reorder") Powermodel.Reorder.of_string,
          order, flt defaults "sp", flt defaults "st",
          int "nodes", int "leaves" )
      with
      | ( Some circuit, Some inputs, Some strategy, Some weighting,
          Some reorder, Some order, Some default_sp, Some default_st,
          Some nodes, Some leaves ) ->
        let* exact, approx_calls = exactness () in
        let max_size =
          match Json.member "max_size" j with
          | Some (Json.Int m) -> Some m
          | _ -> None
        in
        let stat_i k = Option.value (sint k) ~default:0 in
        let stat_f k = Option.value (sflt k) ~default:0.0 in
        let stats : Powermodel.Model.build_stats =
          {
            gates = stat_i "gates";
            gates_done = stat_i "gates_done";
            skipped = stat_i "skipped";
            approx_calls;
            peak_size = stat_i "peak_size";
            final_size = stat_i "final_size";
            bdd_nodes = stat_i "bdd_nodes";
            cpu_seconds = stat_f "cpu_seconds";
            wall_seconds = stat_f "wall_seconds";
            degrade_steps = stat_i "degrade_steps";
            sift_swaps = stat_i "sift_swaps";
            reorder_gain = stat_i "reorder_gain";
          }
        in
        Ok
          {
            circuit; inputs; strategy; weighting; max_size; reorder; exact;
            order; default_sp; default_st; nodes; leaves; stats;
          }
      | _ -> corrupt "header is missing or mistypes a required member"))

(* ------------------------------------------------------------------ *)
(* Program payloads.                                                    *)

let code_payload (repr : Dd.Compiled.repr) =
  let buf = Buffer.create (16 + (12 * (Array.length repr.r_code / 3))) in
  add_u32 buf repr.r_vars;
  add_i32 buf repr.r_root;
  add_u32 buf (Array.length repr.r_code / 3);
  Array.iter (fun v -> add_i32 buf v) repr.r_code;
  Buffer.contents buf

let leaf_payload (repr : Dd.Compiled.repr) =
  let buf = Buffer.create (4 + (8 * Array.length repr.r_leaves)) in
  add_u32 buf (Array.length repr.r_leaves);
  Array.iter (fun v -> add_f64 buf v) repr.r_leaves;
  Buffer.contents buf

let parse_code ~path payload =
  let corrupt what = fail ~section:"CODE" ~reason:"corrupt" ~path what in
  if String.length payload < 12 then corrupt "CODE section too short"
  else
    let nvars = get_u32 payload 0 in
    let root = get_i32 payload 4 in
    let count = get_u32 payload 8 in
    if String.length payload <> 12 + (12 * count) then
      corrupt "CODE section length disagrees with its node count"
    else
      let code =
        Array.init (3 * count) (fun i -> get_i32 payload (12 + (4 * i)))
      in
      Ok (nvars, root, code)

let parse_leaves ~path payload =
  let corrupt what = fail ~section:"LEAF" ~reason:"corrupt" ~path what in
  if String.length payload < 4 then corrupt "LEAF section too short"
  else
    let count = get_u32 payload 0 in
    if String.length payload <> 4 + (8 * count) then
      corrupt "LEAF section length disagrees with its leaf count"
    else Ok (Array.init count (fun i -> get_f64 payload (4 + (8 * i))))

(* ------------------------------------------------------------------ *)
(* Structural validation — everything the eval loops, [of_repr] and
   [make_node] rely on, checked before any program or node exists, so
   corruption that survives a CRC (it cannot, for single-byte damage, but
   belt and braces) still cannot build a cyclic or order-violating
   program or diagram. *)

let validate ~path meta (nvars, root, code) leaves =
  let corrupt what = fail ~section:"CODE" ~reason:"corrupt" ~path what in
  let n = Array.length code / 3 in
  let n_leaves = Array.length leaves in
  let order = meta.order in
  if nvars <> 2 * meta.inputs then
    corrupt "program width disagrees with the header's input count"
  else if Array.length order <> nvars then
    corrupt "variable order length disagrees with the program width"
  else if meta.nodes <> n || meta.leaves <> n_leaves then
    corrupt "header node/leaf counts disagree with the program sections"
  else begin
    (* the order must be a permutation of the variables *)
    let level_of = Array.make (max 1 nvars) (-1) in
    let perm_ok = ref true in
    Array.iteri
      (fun lvl v ->
        if v < 0 || v >= nvars || level_of.(v) >= 0 then perm_ok := false
        else level_of.(v) <- lvl)
      order;
    if not !perm_ok then corrupt "variable order is not a permutation"
    else begin
      let bad = ref None in
      let check_child slot parent_level r =
        if r < 0 then begin
          if lnot r >= n_leaves then
            bad := Some (Printf.sprintf "triple %d references leaf %d of %d"
                           (slot / 3) (lnot r) n_leaves)
        end
        else if r mod 3 <> 0 || r >= 3 * n then
          bad := Some (Printf.sprintf "triple %d has an out-of-range child" (slot / 3))
        else if level_of.(code.(r)) <= parent_level then
          bad := Some (Printf.sprintf "triple %d violates the level order" (slot / 3))
      in
      for i = 0 to n - 1 do
        if !bad = None then begin
          let slot = 3 * i in
          let var = code.(slot) in
          if var < 0 || var >= nvars then
            bad := Some (Printf.sprintf "triple %d tests variable %d of %d" i var nvars)
          else begin
            let lvl = level_of.(var) in
            check_child slot lvl code.(slot + 1);
            check_child slot lvl code.(slot + 2);
            if code.(slot + 1) = code.(slot + 2) then
              bad := Some (Printf.sprintf "triple %d is unreduced (low = high)" i)
          end
        end
      done;
      (if !bad = None then
         if n = 0 then begin
           if root >= 0 || lnot root >= n_leaves then
             bad := Some "leaf-only program has an out-of-range root"
         end
         else if root <> 0 then
           bad := Some "root of a non-constant program must be triple 0");
      if !bad = None then
        Array.iteri
          (fun k v ->
            if !bad = None && not (Float.is_finite v) then
              bad := Some (Printf.sprintf "leaf %d is not finite" k))
          leaves;
      match !bad with None -> Ok () | Some what -> corrupt what
    end
  end

(* ------------------------------------------------------------------ *)
(* Decode: bytes -> validated (meta, program arrays).                   *)

let decode ~path data =
  let ( let* ) = Result.bind in
  if String.length data < String.length magic + 4 then
    fail ~reason:"truncated" ~path "artifact shorter than its magic and version"
  else if String.sub data 0 (String.length magic) <> magic then
    fail ~reason:"version-skew" ~path "bad magic: not a cfpm store artifact"
  else
    let version = get_u32 data (String.length magic) in
    if version <> format_version then
      fail ~reason:"version-skew" ~path
        (Printf.sprintf "artifact format version %d, this reader expects %d"
           version format_version)
    else
      let* sections = parse_sections ~path data (String.length magic + 4) in
      match sections with
      | [ ("HEAD", head); ("CODE", code); ("LEAF", leaf); ("END.", "") ] ->
        let* meta = head_of_json ~path head in
        let* prog = parse_code ~path code in
        let* leaves = parse_leaves ~path leaf in
        let* () = validate ~path meta prog leaves in
        Ok (meta, prog, leaves)
      | _ ->
        (* every section passed its CRC but the sequence is wrong; a
           missing END means the (CRC-clean) tail was cut exactly on a
           section boundary *)
        let tags = List.map fst sections in
        if List.mem "END." tags then
          fail ~reason:"corrupt" ~path "unexpected section sequence"
        else
          fail ~reason:"truncated" ~path
            "artifact ends before its END terminator"

let read_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> Ok data
  | exception Sys_error msg ->
    Error
      (Guard.Error.resource ~context:[ ("file", path) ]
         (Printf.sprintf "cannot read artifact: %s" msg))

(* ------------------------------------------------------------------ *)
(* Save.                                                                *)

let save ?(defaults = (0.5, 0.5)) ~path (model : Powermodel.Model.t) =
  Obs.Trace.with_span "store_save" ~cat:"store"
    ~args:(fun () ->
      [
        ("file", Json.String path);
        ("circuit", Json.String model.circuit_name);
      ])
  @@ fun () ->
  let default_sp, default_st = defaults in
  if
    (not (Float.is_finite default_sp))
    || (not (Float.is_finite default_st))
    || default_sp < 0.0 || default_sp > 1.0 || default_st < 0.0
    || default_st > 1.0
  then
    Error
      (Guard.Error.validation ~context:[ ("file", path) ]
         "store defaults (sp, st) must lie in [0, 1]")
  else
    let repr = Powermodel.Model.triples model in
    let meta =
      {
        circuit = model.circuit_name;
        inputs = model.inputs;
        strategy = model.strategy;
        weighting = model.weighting;
        max_size = model.max_size;
        reorder = model.reorder;
        exact = Powermodel.Model.is_exact model;
        order = repr.r_order;
        default_sp;
        default_st;
        nodes = Array.length repr.r_code / 3;
        leaves = Array.length repr.r_leaves;
        stats = model.stats;
      }
    in
    let buf = Buffer.create (1 lsl 16) in
    Buffer.add_string buf magic;
    add_u32 buf format_version;
    add_section buf "HEAD" (head_json meta);
    add_section buf "CODE" (code_payload repr);
    add_section buf "LEAF" (leaf_payload repr);
    add_section buf "END." "";
    match Ioutil.write_atomic path (Buffer.contents buf) with
    | () ->
      Obs.Metrics.incr m_saves;
      Ok meta
    | exception Unix.Unix_error (err, _, _) ->
      Error
        (Guard.Error.resource ~context:[ ("file", path) ]
           (Printf.sprintf "cannot write artifact: %s" (Unix.error_message err)))
    | exception Sys_error msg ->
      Error
        (Guard.Error.resource ~context:[ ("file", path) ]
           (Printf.sprintf "cannot write artifact: %s" msg))

(* ------------------------------------------------------------------ *)
(* Load / verify.                                                       *)

type artifact = { meta : meta; compiled : Powermodel.Model.compiled }

type loaded = {
  meta : meta;
  model : Powermodel.Model.t;
  compiled : Powermodel.Model.compiled;
}

(* The program is levelized straight from the decoded, validated arrays;
   the width, the exactness and the arrays are all the header's and the
   sections' own, so no diagram node is built. *)
let artifact_of meta (nvars, root, code) leaves =
  let program =
    Dd.Compiled.of_repr
      { r_vars = nvars; r_order = meta.order; r_code = code; r_leaves = leaves;
        r_root = root }
  in
  {
    meta;
    compiled =
      Powermodel.Model.compiled_of_program ~inputs:meta.inputs
        ~exact:meta.exact program;
  }

(* The ADD of [loaded.model] is rebuilt bottom-up from the artifact's
   program through the ordinary hash-consing constructor, under the
   stored level order.  Slot order is DFS-with-sharing (a re-referenced
   child can sit at a *smaller* slot than its parent), so the topological
   order that is guaranteed is the level order: every edge goes strictly
   deeper (validated above).  Building deepest levels first therefore
   sees every child before any parent. *)
let rebuild ({ meta; compiled } : artifact) =
  let { Dd.Compiled.r_vars = nvars; r_code = code; r_leaves = leaves;
        r_root = root; _ } =
    Dd.Compiled.to_repr (Powermodel.Model.compiled_program compiled)
  in
  let mgr = Dd.Add.manager () in
  if nvars > 0 then Dd.Add.set_order mgr meta.order;
  let leaf_nodes = Array.map (fun v -> Dd.Add.const mgr v) leaves in
  let n = Array.length code / 3 in
  let placeholder =
    if Array.length leaf_nodes > 0 then leaf_nodes.(0) else Dd.Add.const mgr 0.0
  in
  let built = Array.make (max 1 n) placeholder in
  let resolve r = if r < 0 then leaf_nodes.(lnot r) else built.(r / 3) in
  let level_of = Array.make (max 1 nvars) 0 in
  Array.iteri (fun lvl v -> level_of.(v) <- lvl) meta.order;
  let by_depth = Array.init n (fun i -> i) in
  Array.sort
    (fun a b -> compare level_of.(code.(3 * b)) level_of.(code.(3 * a)))
    by_depth;
  Array.iter
    (fun i ->
      built.(i) <-
        Dd.Add.make_node mgr
          code.(3 * i)
          (resolve code.((3 * i) + 1))
          (resolve code.((3 * i) + 2)))
    by_depth;
  let cap = resolve root in
  Dd.Add.protect mgr cap;
  let model : Powermodel.Model.t =
    {
      circuit_name = meta.circuit;
      inputs = meta.inputs;
      strategy = meta.strategy;
      weighting = meta.weighting;
      max_size = meta.max_size;
      reorder = meta.reorder;
      add_manager = mgr;
      cap;
      stats = meta.stats;
    }
  in
  { meta; model; compiled }

(* Both entry points share one span, one fault seam and one pair of
   counters; [finish] turns the decoded artifact into what the caller
   asked for. *)
let load_with finish path =
  Obs.Trace.with_span "store_load" ~cat:"store"
    ~args:(fun () -> [ ("file", Json.String path) ])
  @@ fun () ->
  let ( let* ) = Result.bind in
  let result =
    let* () =
      (* chaos seam: inert unless a fault spec is armed and we are inside
         a supervised scope (a serve request, a supervised pool task) *)
      match Guard.Fault.inject "store_read" with
      | () -> Ok ()
      | exception Guard.Error.Guarded e -> Error e
    in
    let* data = read_file ~path in
    let* meta, prog, leaves = decode ~path data in
    match finish (artifact_of meta prog leaves) with
    | v -> Ok v
    | exception e ->
      Error
        (Guard.Error.with_context [ ("file", path) ] (Guard.Error.of_exn e))
  in
  (match result with
  | Ok _ -> Obs.Metrics.incr m_loads
  | Error _ -> Obs.Metrics.incr m_load_failures);
  result

let load_compiled path = load_with Fun.id path
let load path = load_with rebuild path

let verify path =
  Obs.Trace.with_span "store_verify" ~cat:"store"
    ~args:(fun () -> [ ("file", Json.String path) ])
  @@ fun () ->
  let ( let* ) = Result.bind in
  let* data = read_file ~path in
  let* meta, _prog, _leaves = decode ~path data in
  Ok meta

(* 200 bytes a node was sized for a load that also rebuilt the diagram
   (hash-consed nodes and unique-table slots on top of the program's
   three ints a triple and the levelized step table, whose worst case is
   16 entries x nodes per radix-4 pass).  A compiled-only load keeps no
   diagram, so this is now a deliberate over-estimate.  It stays: the
   benchmark's query workload derives its cache ceiling from this figure,
   and moving it would change which artifacts reload, so re-deriving it
   from the program arrays belongs with a benchmark-side change to that
   ceiling.  The ceiling is a memory-pressure valve, not an accounting
   exercise. *)
let approx_bytes meta = (meta.nodes * 200) + (meta.leaves * 64) + 4096

(* Mergeable online estimators.

   The state is a *block summary*: what a contiguous run of vectors
   contributes to the stream statistics, positioned at a global offset.
   [start] is the global index of the block's first vector and [pstart]
   the number of power observations that precede the block, so a worker
   building a middle block evaluates the same weight steps a sequential
   fold would.  The weighted mean is carried as the affine map the block
   applies to any prior mean (m -> w_decay * m + w_mean), which is how
   blocks compose without knowing what ran before them. *)

type t = {
  wt : Weight.t;
  width : int;
  mutable start : int;
  mutable pstart : int;
  mutable n : int;
  mutable trans : int;
  ones : int array;
  toggles : int array;
  first : int array;  (** words of the first vector, when [n > 0] *)
  last : int array;  (** words of the last vector, when [n > 0] *)
  mutable pn : int;
  mutable p_mean : float;
  mutable p_m2 : float;
  mutable p_min : float;
  mutable p_max : float;
  mutable w_decay : float;
  mutable w_mean : float;
  mutable steps : float array;
      (** scratch: the weight steps of the block being consumed, one
          slice per shard; never shared between summaries *)
}

let create ?(weight = Weight.Equal) ~bits () =
  if bits < 1 then invalid_arg "Stats.create: bits must be >= 1";
  let stride = Stimulus.Block.stride_of ~width:bits in
  {
    wt = weight;
    width = bits;
    start = 0;
    pstart = 0;
    n = 0;
    trans = 0;
    ones = Array.make bits 0;
    toggles = Array.make bits 0;
    first = Array.make stride 0;
    last = Array.make stride 0;
    pn = 0;
    p_mean = 0.0;
    p_m2 = 0.0;
    p_min = infinity;
    p_max = neg_infinity;
    w_decay = 1.0;
    w_mean = 0.0;
    steps = [||];
  }

let copy t =
  {
    t with
    ones = Array.copy t.ones;
    toggles = Array.copy t.toggles;
    first = Array.copy t.first;
    last = Array.copy t.last;
    steps = [||];
  }

let weight t = t.wt
let bits t = t.width

let merge_into a b =
  if a.width <> b.width then invalid_arg "Stats.merge: width mismatch";
  if a.wt <> b.wt then invalid_arg "Stats.merge: weight schedule mismatch";
  if a.n = 0 then begin
    a.start <- b.start;
    a.pstart <- b.pstart;
    Array.blit b.first 0 a.first 0 (Array.length a.first)
  end;
  if b.n > 0 then Array.blit b.last 0 a.last 0 (Array.length a.last);
  for i = 0 to a.width - 1 do
    a.ones.(i) <- a.ones.(i) + b.ones.(i);
    a.toggles.(i) <- a.toggles.(i) + b.toggles.(i)
  done;
  a.n <- a.n + b.n;
  a.trans <- a.trans + b.trans;
  if b.pn > 0 then begin
    if a.pn = 0 then begin
      a.p_mean <- b.p_mean;
      a.p_m2 <- b.p_m2;
      a.p_min <- b.p_min;
      a.p_max <- b.p_max
    end
    else begin
      (* symmetric pairwise Welford combination: every term commutes
         bit for bit, so merge order cannot leak into the moments *)
      let na = float_of_int a.pn and nb = float_of_int b.pn in
      let n = na +. nb in
      let d = b.p_mean -. a.p_mean in
      let mean = ((na *. a.p_mean) +. (nb *. b.p_mean)) /. n in
      a.p_m2 <- a.p_m2 +. b.p_m2 +. (d *. d *. (na *. nb /. n));
      a.p_mean <- mean;
      if b.p_min < a.p_min then a.p_min <- b.p_min;
      if b.p_max > a.p_max then a.p_max <- b.p_max
    end;
    a.pn <- a.pn + b.pn
  end;
  a.w_mean <- (b.w_decay *. a.w_mean) +. b.w_mean;
  a.w_decay <- a.w_decay *. b.w_decay

let merge a b =
  let out = copy a in
  merge_into out b;
  out

(* --- sharded consumption ------------------------------------------- *)

let shard_block = 512

(* Welford and the weighted mean over [power.(p0) .. power.(p0 + m -
   1)], in order — one observation per transition, as a sequential fold
   takes them.  The weight steps go to [steps.(p0) ..], unboxed. *)
let observe_powers s power steps p0 m =
  Weight.fill s.wt ~n0:(s.pstart + s.pn + 1) steps ~pos:p0 ~len:m;
  let pn = ref s.pn and mean = ref s.p_mean and m2 = ref s.p_m2 in
  let mn = ref s.p_min and mx = ref s.p_max in
  let decay = ref s.w_decay and wmean = ref s.w_mean in
  for q = p0 to p0 + m - 1 do
    let p = power.(q) in
    incr pn;
    let d = p -. !mean in
    mean := !mean +. (d /. float_of_int !pn);
    m2 := !m2 +. (d *. (p -. !mean));
    if p < !mn then mn := p;
    if p > !mx then mx := p;
    let g = steps.(q) in
    decay := !decay *. (1.0 -. g);
    wmean := ((1.0 -. g) *. !wmean) +. (g *. p)
  done;
  s.pn <- !pn;
  s.p_mean <- !mean;
  s.p_m2 <- !m2;
  s.p_min <- !mn;
  s.p_max <- !mx;
  s.w_decay <- !decay;
  s.w_mean <- !wmean

let consume_block ?jobs ?power t block ~first =
  let total = Stimulus.Block.length block - first in
  if Stimulus.Block.width block <> t.width then
    invalid_arg "Stats.consume_block: vector width mismatch";
  if first < 0 || total < 0 then invalid_arg "Stats.consume_block: bad first";
  let had_pred = t.n > 0 in
  let transitions = if had_pred then total else Int.max 0 (total - 1) in
  (match power with
  | Some p when Array.length p < transitions ->
    invalid_arg "Stats.consume_block: fewer powers than transitions"
  | _ -> ());
  if Option.is_some power && Array.length t.steps < transitions then
    t.steps <- Array.make transitions 0.0;
  if total > 0 then begin
    let nblocks = ((total - 1) / shard_block) + 1 in
    let stride = Stimulus.Block.stride block in
    let build b =
      let off = b * shard_block in
      let len = Int.min shard_block (total - off) in
      let s = create ~weight:t.wt ~bits:t.width () in
      s.start <- t.start + t.n + off;
      (* power observations preceding this block: one per earlier vector
         of the chunk when the stream already had a last vector, else one
         per earlier vector after the very first *)
      let before = if had_pred then off else Int.max 0 (off - 1) in
      s.pstart <- t.pstart + t.pn + before;
      let prev =
        if b > 0 then begin
          let w = Array.make stride 0 in
          Stimulus.Block.store block (first + off - 1) w;
          Some w
        end
        else if had_pred then Some t.last
        else None
      in
      Stimulus.Block.tally block ~first:(first + off) ~len ~prev ~ones:s.ones
        ~toggles:s.toggles;
      s.n <- len;
      s.trans <- (if Option.is_some prev then len else len - 1);
      Stimulus.Block.store block (first + off) s.first;
      Stimulus.Block.store block (first + off + len - 1) s.last;
      (match power with
      | Some p -> observe_powers s p t.steps before s.trans
      | None -> ());
      s
    in
    let summaries =
      if nblocks = 1 then [ build 0 ]
      else Parallel.Pool.map ?jobs build (List.init nblocks Fun.id)
    in
    List.iter (fun s -> merge_into t s) summaries
  end

let consume ?jobs ?power t vectors =
  let power =
    Option.map
      (fun f ->
        let last = Array.init t.width (Stimulus.Block.bit t.last) in
        let k0 = if t.n > 0 then 0 else 1 in
        Array.init
          (Int.max 0 (Array.length vectors - k0))
          (fun q ->
            let k = q + k0 in
            f ~x_i:(if k = 0 then last else vectors.(k - 1)) ~x_f:vectors.(k)))
      power
  in
  consume_block ?jobs ?power t (Stimulus.Block.of_bools ~width:t.width vectors)
    ~first:0

(* --- readings ------------------------------------------------------ *)

let vectors t = t.n
let transitions t = t.trans
let last t = if t.n > 0 then Some (Array.copy t.last) else None

let ratio num den =
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

let sp t = Array.map (fun c -> ratio c t.n) t.ones
let st t = Array.map (fun c -> ratio c t.trans) t.toggles

let mean_sp t = ratio (Array.fold_left ( + ) 0 t.ones) (t.n * t.width)
let mean_st t = ratio (Array.fold_left ( + ) 0 t.toggles) (t.trans * t.width)

let power_count t = t.pn
let power_mean t = t.p_mean
let power_variance t = if t.pn < 2 then 0.0 else t.p_m2 /. float_of_int t.pn
let power_min t = t.p_min
let power_max t = t.p_max
let weighted_power_mean t = t.w_mean

(* --- serialization ------------------------------------------------- *)

let floats a = Json.List (Array.to_list (Array.map (fun v -> Json.Float v) a))
let ints a = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a))

(* non-finite extrema (the empty-stream sentinels) have no JSON
   representation; [pn = 0] encodes them *)
let finite_or_null v = if Float.is_finite v then Json.Float v else Json.Null

let snapshot_json t =
  Json.Obj
    [
      ("weight", Json.String (Weight.to_string t.wt));
      ("bits", Json.Int t.width);
      ("vectors", Json.Int t.n);
      ("transitions", Json.Int t.trans);
      ("sp", floats (sp t));
      ("st", floats (st t));
      ("mean_sp", Json.Float (mean_sp t));
      ("mean_st", Json.Float (mean_st t));
      ( "power",
        Json.Obj
          [
            ("count", Json.Int t.pn);
            ("mean", Json.Float t.p_mean);
            ("variance", Json.Float (power_variance t));
            ("min", finite_or_null t.p_min);
            ("max", finite_or_null t.p_max);
            ("weighted_mean", Json.Float t.w_mean);
          ] );
    ]

let opt_bits t v =
  if t.n = 0 then Json.Null
  else Json.String (Stimulus.Block.to_string ~width:t.width v)

let to_json t =
  Json.Obj
    [
      ("weight", Json.String (Weight.to_string t.wt));
      ("bits", Json.Int t.width);
      ("start", Json.Int t.start);
      ("pstart", Json.Int t.pstart);
      ("n", Json.Int t.n);
      ("trans", Json.Int t.trans);
      ("ones", ints t.ones);
      ("toggles", ints t.toggles);
      ("first", opt_bits t t.first);
      ("last", opt_bits t t.last);
      ("pn", Json.Int t.pn);
      ("p_mean", Json.Float t.p_mean);
      ("p_m2", Json.Float t.p_m2);
      ("p_min", finite_or_null t.p_min);
      ("p_max", finite_or_null t.p_max);
      ("w_decay", Json.Float t.w_decay);
      ("w_mean", Json.Float t.w_mean);
    ]

let of_json j =
  let fail what = Error (Guard.Error.parse ("stream stats checkpoint: " ^ what)) in
  let int k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some v -> Ok v
    | None -> fail ("missing int " ^ k)
  in
  let flt k =
    match Option.bind (Json.member k j) Json.to_float with
    | Some v -> Ok v
    | None -> fail ("missing float " ^ k)
  in
  let int_array k =
    match Json.member k j with
    | Some (Json.List l) -> (
      try Ok (Array.of_list (List.map (fun x -> Option.get (Json.to_int x)) l))
      with _ -> fail ("bad int list " ^ k))
    | _ -> fail ("missing list " ^ k)
  in
  (* a vector is present exactly when the estimator holds one: [n]
     bits of 0/1, rendered by [to_json] *)
  let vec ~bits ~n k =
    match Json.member k j with
    | (Some Json.Null | None) when n = 0 ->
      Ok (Array.make (Stimulus.Block.stride_of ~width:bits) 0)
    | Some (Json.String s) when n > 0 -> (
      match Stimulus.Block.of_string ~width:bits s with
      | Some w -> Ok w
      | None -> fail (Printf.sprintf "vector %s is not %d bits of 0/1" k bits))
    | _ ->
      fail
        (Printf.sprintf "vector %s must be %s" k
           (if n = 0 then "null on an empty estimator" else "a bitstring"))
  in
  let ( let* ) = Result.bind in
  let* wt =
    match Json.member "weight" j with
    | Some (Json.String s) -> Weight.of_string s
    | _ -> fail "missing weight"
  in
  let* bits = int "bits" in
  if bits < 1 then fail "bits must be >= 1"
  else
    let* start = int "start" in
    let* pstart = int "pstart" in
    let* n = int "n" in
    let* trans = int "trans" in
    let* ones = int_array "ones" in
    let* toggles = int_array "toggles" in
    if Array.length ones <> bits || Array.length toggles <> bits then
      fail "count array width mismatch"
    else
      let* first = vec ~bits ~n "first" in
      let* last = vec ~bits ~n "last" in
      let* pn = int "pn" in
      let* p_mean = flt "p_mean" in
      let* p_m2 = flt "p_m2" in
      let* w_decay = flt "w_decay" in
      let* w_mean = flt "w_mean" in
      let extremum k fallback =
        match Json.member k j with
        | Some Json.Null -> Ok fallback
        | Some f -> (
          match Json.to_float f with
          | Some v -> Ok v
          | None -> fail ("bad float " ^ k))
        | None -> fail ("missing " ^ k)
      in
      let* p_min = extremum "p_min" infinity in
      let* p_max = extremum "p_max" neg_infinity in
      Ok
        {
          wt;
          width = bits;
          start;
          pstart;
          n;
          trans;
          ones;
          toggles;
          first;
          last;
          pn;
          p_mean;
          p_m2;
          p_min;
          p_max;
          w_decay;
          w_mean;
          steps = [||];
        }

(* The per-vector statistics and drift folds that Stream.Stats and
   Stream.Drift replaced with packed blocks, kept as the reference the
   packed folds must reproduce: the same integer counts and the same
   float bits.  Vectors are bool arrays, observed one at a time; the
   statistics still shard each chunk into [Stats.shard_block]-vector
   summaries merged in order, since that fixes the float association.
   Both render the checkpoint JSON the library writes. *)

let bits_string v =
  String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

let ints a = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a))
let finite_or_null v = if Float.is_finite v then Json.Float v else Json.Null
let opt_bits = function None -> Json.Null | Some v -> Json.String (bits_string v)

module Stats = struct
  type t = {
    wt : Stream.Weight.t;
    width : int;
    mutable start : int;
    mutable pstart : int;
    mutable n : int;
    mutable trans : int;
    ones : int array;
    toggles : int array;
    mutable first : bool array option;
    mutable last : bool array option;
    mutable pn : int;
    mutable p_mean : float;
    mutable p_m2 : float;
    mutable p_min : float;
    mutable p_max : float;
    mutable w_decay : float;
    mutable w_mean : float;
  }

  let create ?(weight = Stream.Weight.Equal) ~bits () =
    {
      wt = weight;
      width = bits;
      start = 0;
      pstart = 0;
      n = 0;
      trans = 0;
      ones = Array.make bits 0;
      toggles = Array.make bits 0;
      first = None;
      last = None;
      pn = 0;
      p_mean = 0.0;
      p_m2 = 0.0;
      p_min = infinity;
      p_max = neg_infinity;
      w_decay = 1.0;
      w_mean = 0.0;
    }

  let observe t ?power v =
    (match t.last with
    | Some prev ->
      for i = 0 to t.width - 1 do
        if prev.(i) <> v.(i) then t.toggles.(i) <- t.toggles.(i) + 1
      done;
      t.trans <- t.trans + 1
    | None -> ());
    for i = 0 to t.width - 1 do
      if v.(i) then t.ones.(i) <- t.ones.(i) + 1
    done;
    t.n <- t.n + 1;
    if t.first = None then t.first <- Some (Array.copy v);
    t.last <- Some (Array.copy v);
    match power with
    | None -> ()
    | Some p ->
      t.pn <- t.pn + 1;
      let d = p -. t.p_mean in
      t.p_mean <- t.p_mean +. (d /. float_of_int t.pn);
      t.p_m2 <- t.p_m2 +. (d *. (p -. t.p_mean));
      if p < t.p_min then t.p_min <- p;
      if p > t.p_max then t.p_max <- p;
      let g = Stream.Weight.at t.wt ~n:(t.pstart + t.pn) in
      t.w_decay <- t.w_decay *. (1.0 -. g);
      t.w_mean <- ((1.0 -. g) *. t.w_mean) +. (g *. p)

  let merge_into a b =
    if a.n = 0 then begin
      a.start <- b.start;
      a.pstart <- b.pstart
    end;
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
    a.w_decay <- a.w_decay *. b.w_decay;
    if a.first = None then a.first <- Option.map Array.copy b.first;
    match b.last with Some v -> a.last <- Some (Array.copy v) | None -> ()

  let consume ?power t vectors =
    let total = Array.length vectors in
    if total > 0 then begin
      let nblocks = ((total - 1) / Stream.Stats.shard_block) + 1 in
      let had_pred = t.last <> None in
      let build b =
        let off = b * Stream.Stats.shard_block in
        let len = Int.min Stream.Stats.shard_block (total - off) in
        let prev = if b = 0 then t.last else Some vectors.(off - 1) in
        let s = create ~weight:t.wt ~bits:t.width () in
        s.start <- t.start + t.n + off;
        s.pstart <- t.pstart + t.pn + (if had_pred then off else Int.max 0 (off - 1));
        s.last <- prev;
        for k = off to off + len - 1 do
          let v = vectors.(k) in
          let p =
            match (power, s.last) with
            | Some f, Some prev -> Some (f ~x_i:prev ~x_f:v)
            | _ -> None
          in
          observe s ?power:p v
        done;
        s
      in
      let summaries = List.map build (List.init nblocks Fun.id) in
      List.iter (merge_into t) summaries
    end

  let to_json t =
    Json.Obj
      [
        ("weight", Json.String (Stream.Weight.to_string t.wt));
        ("bits", Json.Int t.width);
        ("start", Json.Int t.start);
        ("pstart", Json.Int t.pstart);
        ("n", Json.Int t.n);
        ("trans", Json.Int t.trans);
        ("ones", ints t.ones);
        ("toggles", ints t.toggles);
        ("first", opt_bits t.first);
        ("last", opt_bits t.last);
        ("pn", Json.Int t.pn);
        ("p_mean", Json.Float t.p_mean);
        ("p_m2", Json.Float t.p_m2);
        ("p_min", finite_or_null t.p_min);
        ("p_max", finite_or_null t.p_max);
        ("w_decay", Json.Float t.w_decay);
        ("w_mean", Json.Float t.w_mean);
      ]
end

module Drift = struct
  type win = {
    mutable wn : int;
    mutable wtrans : int;
    w_ones : int array;
    w_toggles : int array;
    mutable w_last : bool array option;
  }

  let fresh_win bits =
    {
      wn = 0;
      wtrans = 0;
      w_ones = Array.make bits 0;
      w_toggles = Array.make bits 0;
      w_last = None;
    }

  type t = {
    cfg : Stream.Drift.config;
    width : int;
    mutable seen : int;
    mutable windows : int;
    cur : win;
    mutable reference : win option;
    mutable armed : bool;
    mutable events : int;
    mutable skipped : int;
  }

  let create ~config ~bits () =
    {
      cfg = config;
      width = bits;
      seen = 0;
      windows = 0;
      cur = fresh_win bits;
      reference = None;
      armed = true;
      events = 0;
      skipped = 0;
    }

  let distance t r c =
    let mean_abs_diff a an b bn =
      let acc = ref 0.0 in
      for i = 0 to t.width - 1 do
        let pa = if an = 0 then 0.0 else float_of_int a.(i) /. float_of_int an in
        let pb = if bn = 0 then 0.0 else float_of_int b.(i) /. float_of_int bn in
        acc := !acc +. Float.abs (pa -. pb)
      done;
      !acc /. float_of_int t.width
    in
    Float.max
      (mean_abs_diff r.w_ones r.wn c.w_ones c.wn)
      (mean_abs_diff r.w_toggles r.wtrans c.w_toggles c.wtrans)

  let snapshot_win w =
    {
      wn = w.wn;
      wtrans = w.wtrans;
      w_ones = Array.copy w.w_ones;
      w_toggles = Array.copy w.w_toggles;
      w_last = None;
    }

  (* judge and reset the current window; [true] when an event fires *)
  let judge t =
    let w = t.cur in
    t.windows <- t.windows + 1;
    let fired =
      w.wn >= t.cfg.Stream.Drift.min_samples
      &&
      match t.reference with
      | None ->
        t.reference <- Some (snapshot_win w);
        false
      | Some r ->
        let d = distance t r w in
        if t.armed && d >= t.cfg.high then begin
          t.armed <- false;
          t.events <- t.events + 1;
          t.reference <- Some (snapshot_win w);
          true
        end
        else begin
          if (not t.armed) && d <= t.cfg.low then t.armed <- true;
          false
        end
    in
    w.wn <- 0;
    w.wtrans <- 0;
    Array.fill w.w_ones 0 t.width 0;
    Array.fill w.w_toggles 0 t.width 0;
    w.w_last <- None;
    fired

  let observe t v =
    let w = t.cur in
    (match w.w_last with
    | Some prev ->
      for i = 0 to t.width - 1 do
        if prev.(i) <> v.(i) then w.w_toggles.(i) <- w.w_toggles.(i) + 1
      done;
      w.wtrans <- w.wtrans + 1
    | None -> ());
    for i = 0 to t.width - 1 do
      if v.(i) then w.w_ones.(i) <- w.w_ones.(i) + 1
    done;
    w.wn <- w.wn + 1;
    w.w_last <- Some (Array.copy v);
    t.seen <- t.seen + 1;
    w.wn >= t.cfg.window && judge t

  let win_json w =
    Json.Obj
      [
        ("n", Json.Int w.wn);
        ("trans", Json.Int w.wtrans);
        ("ones", ints w.w_ones);
        ("toggles", ints w.w_toggles);
        ("last", opt_bits w.w_last);
      ]

  let to_json t =
    Json.Obj
      [
        ("window", Json.Int t.cfg.window);
        ("min_samples", Json.Int t.cfg.min_samples);
        ("high", Json.Float t.cfg.high);
        ("low", Json.Float t.cfg.low);
        ("bits", Json.Int t.width);
        ("seen", Json.Int t.seen);
        ("windows", Json.Int t.windows);
        ("armed", Json.Bool t.armed);
        ("events", Json.Int t.events);
        ("skipped", Json.Int t.skipped);
        ("cur", win_json t.cur);
        ("reference", match t.reference with None -> Json.Null | Some r -> win_json r);
      ]
end

(* Tumbling-window drift detection with hysteresis.

   All window state is integer counts, so judgements — and therefore the
   whole event sequence — are bit-deterministic and checkpoint exactly.
   A window's toggles are counted against its own predecessor vector
   only (the first vector of each window has none), which keeps windows
   self-contained under resume. *)

type config = {
  window : int;
  min_samples : int;
  high : float;
  low : float;
}

(* Window and threshold defaults are sized for the serially-correlated
   Markov stimulus: at st = 0.05 the per-input chains carry lag-1
   autocorrelation ~0.9, inflating the sp-estimate variance ~19x over
   i.i.d. sampling.  A 2048-vector window keeps the noise floor of the
   distance near 0.04, so [high] never fires on a steady workload and
   [low] reliably re-arms after a rebase. *)
let default_config =
  { window = 2048; min_samples = 512; high = 0.15; low = 0.08 }

let validate_config c =
  let bad what = Error (Guard.Error.validation ("drift config: " ^ what)) in
  if c.window < 2 then bad "window must be >= 2"
  else if c.min_samples < 2 || c.min_samples > c.window then
    bad "min_samples must be in [2, window]"
  else if not (Float.is_finite c.high && c.high > 0.0) then
    bad "high must be finite and > 0"
  else if not (Float.is_finite c.low && c.low >= 0.0 && c.low <= c.high) then
    bad "low must be in [0, high]"
  else Ok c

type event = {
  at : int;
  distance : float;
  ref_sp : float;
  ref_st : float;
  cur_sp : float;
  cur_st : float;
}

let event_json e =
  Json.Obj
    [
      ("at", Json.Int e.at);
      ("distance", Json.Float e.distance);
      ("ref_sp", Json.Float e.ref_sp);
      ("ref_st", Json.Float e.ref_st);
      ("cur_sp", Json.Float e.cur_sp);
      ("cur_st", Json.Float e.cur_st);
    ]

(* A closed or in-progress window: counts, plus the words of its last
   vector (meaningful while [wn > 0], and never on a reference). *)
type win = {
  mutable wn : int;
  mutable wtrans : int;
  w_ones : int array;
  w_toggles : int array;
  w_last : int array;
}

let fresh_win bits =
  {
    wn = 0;
    wtrans = 0;
    w_ones = Array.make bits 0;
    w_toggles = Array.make bits 0;
    w_last = Array.make (Stimulus.Block.stride_of ~width:bits) 0;
  }

type t = {
  cfg : config;
  width : int;
  mutable seen : int;
  mutable windows : int;  (** windows closed so far (fault-point key) *)
  cur : win;
  mutable reference : win option;  (** w_last unused on a reference *)
  mutable armed : bool;
  mutable events : int;
  mutable skipped : int;
}

let create ?(config = default_config) ~bits () =
  (match validate_config config with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Drift.create: " ^ e.Guard.Error.what));
  if bits < 1 then invalid_arg "Drift.create: bits must be >= 1";
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

let ratio_mean counts den =
  if den = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 counts) /. float_of_int den

let win_sp t w = ratio_mean w.w_ones (w.wn * t.width)
let win_st t w = ratio_mean w.w_toggles (w.wtrans * t.width)

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
    w_last = Array.make (Array.length w.w_last) 0;
  }

let reset_win w =
  w.wn <- 0;
  w.wtrans <- 0;
  Array.fill w.w_ones 0 (Array.length w.w_ones) 0;
  Array.fill w.w_toggles 0 (Array.length w.w_toggles) 0

(* Judge the current window against the reference, then reset it.  The
   [drift_check] fault point can veto one judgement (counted), never the
   stream. *)
let judge t =
  let w = t.cur in
  t.windows <- t.windows + 1;
  let verdict =
    if w.wn < t.cfg.min_samples then None
    else
      let key = Printf.sprintf "stream:drift:%d" t.windows in
      match
        Guard.Fault.with_task ~key ~attempt:0 (fun () ->
            Guard.Fault.inject "drift_check")
      with
      | () -> (
        match t.reference with
        | None ->
          t.reference <- Some (snapshot_win w);
          None
        | Some r ->
          let d = distance t r w in
          if t.armed && d >= t.cfg.high then begin
            t.armed <- false;
            t.events <- t.events + 1;
            let ev =
              {
                at = t.seen;
                distance = d;
                ref_sp = win_sp t r;
                ref_st = win_st t r;
                cur_sp = win_sp t w;
                cur_st = win_st t w;
              }
            in
            (* rebase: the new regime is the new normal, so an
               oscillating boundary cannot re-fire every window *)
            t.reference <- Some (snapshot_win w);
            Some ev
          end
          else begin
            if (not t.armed) && d <= t.cfg.low then t.armed <- true;
            None
          end)
      | exception Guard.Error.Guarded _ ->
        t.skipped <- t.skipped + 1;
        None
  in
  reset_win w;
  verdict

let room t = t.cfg.window - t.cur.wn

let observe_block t block ~first ~len =
  if Stimulus.Block.width block <> t.width then
    invalid_arg "Drift.observe_block: vector width mismatch";
  if len < 0 || len > room t || first < 0 || first + len > Stimulus.Block.length block
  then invalid_arg "Drift.observe_block: range outside the block or the window";
  if len = 0 then None
  else begin
    let w = t.cur in
    let prev = if w.wn > 0 then Some w.w_last else None in
    Stimulus.Block.tally block ~first ~len ~prev ~ones:w.w_ones
      ~toggles:w.w_toggles;
    w.wtrans <- w.wtrans + (if w.wn > 0 then len else len - 1);
    w.wn <- w.wn + len;
    Stimulus.Block.store block (first + len - 1) w.w_last;
    t.seen <- t.seen + len;
    if w.wn >= t.cfg.window then judge t else None
  end

let observe t v =
  let block = Stimulus.Block.of_bools ~width:t.width [| v |] in
  observe_block t block ~first:0 ~len:1

let flush t = if t.cur.wn > 0 then judge t else None

let bits t = t.width
let config t = t.cfg
let seen t = t.seen
let events t = t.events
let skipped_checks t = t.skipped
let armed t = t.armed

(* --- checkpointing ------------------------------------------------- *)

let ints a = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a))

let win_json ~bits ~reference w =
  Json.Obj
    [
      ("n", Json.Int w.wn);
      ("trans", Json.Int w.wtrans);
      ("ones", ints w.w_ones);
      ("toggles", ints w.w_toggles);
      ( "last",
        if reference || w.wn = 0 then Json.Null
        else Json.String (Stimulus.Block.to_string ~width:bits w.w_last) );
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
      ("cur", win_json ~bits:t.width ~reference:false t.cur);
      ( "reference",
        match t.reference with
        | None -> Json.Null
        | Some r -> win_json ~bits:t.width ~reference:true r );
    ]

let of_json j =
  let fail what = Error (Guard.Error.parse ("drift checkpoint: " ^ what)) in
  let int k ctx =
    match Option.bind (Json.member k ctx) Json.to_int with
    | Some v -> Ok v
    | None -> fail ("missing int " ^ k)
  in
  let flt k =
    match Option.bind (Json.member k j) Json.to_float with
    | Some v -> Ok v
    | None -> fail ("missing float " ^ k)
  in
  let int_array k ctx =
    match Json.member k ctx with
    | Some (Json.List l) -> (
      try Ok (Array.of_list (List.map (fun x -> Option.get (Json.to_int x)) l))
      with _ -> fail ("bad int list " ^ k))
    | _ -> fail ("missing list " ^ k)
  in
  let ( let* ) = Result.bind in
  (* a window's counts are [bits] wide; the current window carries its
     last vector exactly when it holds one, a reference never does *)
  let win_of ~bits ~reference ctx =
    let* wn = int "n" ctx in
    let* wtrans = int "trans" ctx in
    let* w_ones = int_array "ones" ctx in
    let* w_toggles = int_array "toggles" ctx in
    let w = fresh_win bits in
    let* () =
      if Array.length w_ones <> bits || Array.length w_toggles <> bits then
        fail "window count arrays do not match the width"
      else Ok ()
    in
    let* () =
      match Json.member "last" ctx with
      | Some Json.Null | None when reference || wn = 0 -> Ok ()
      | Some (Json.String s) when (not reference) && wn > 0 -> (
        match Stimulus.Block.of_string ~width:bits s with
        | Some v -> Ok (Array.blit v 0 w.w_last 0 (Array.length v))
        | None -> fail (Printf.sprintf "last vector is not %d bits of 0/1" bits))
      | _ -> fail "last vector does not match the window"
    in
    Ok { w with wn; wtrans; w_ones; w_toggles }
  in
  let* window = int "window" j in
  let* min_samples = int "min_samples" j in
  let* high = flt "high" in
  let* low = flt "low" in
  let* cfg = validate_config { window; min_samples; high; low } in
  let* bits = int "bits" j in
  let* seen = int "seen" j in
  let* windows = int "windows" j in
  let* armed =
    match Json.member "armed" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> fail "missing armed"
  in
  let* events = int "events" j in
  let* skipped = int "skipped" j in
  let* () = if bits < 1 then fail "bits must be >= 1" else Ok () in
  let* cur =
    match Json.member "cur" j with
    | Some c -> win_of ~bits ~reference:false c
    | None -> fail "missing cur window"
  in
  let* () =
    if cur.wn < 0 || cur.wn >= cfg.window then
      fail "current window count outside [0, window)"
    else Ok ()
  in
  let* reference =
    match Json.member "reference" j with
    | Some Json.Null | None -> Ok None
    | Some r -> Result.map Option.some (win_of ~bits ~reference:true r)
  in
  Ok
    { cfg; width = bits; seen; windows; cur; reference; armed; events; skipped }

(* Weight schedules, after OnlineStats.jl: a pure function from the
   observation's global 1-based index to the smoothing step, so a block
   summary built on a worker domain reproduces the steps a sequential
   fold would have used. *)

type t =
  | Equal
  | Exponential of float
  | Bounded of t * float
  | Scaled of t * float

let in_unit x = Float.is_finite x && x > 0.0 && x <= 1.0

let rec validate w =
  let bad what v =
    Error
      (Guard.Error.validation
         ~context:[ ("value", string_of_float v) ]
         what)
  in
  match w with
  | Equal -> Ok Equal
  | Exponential l ->
    if in_unit l then Ok w else bad "exponential step must be in (0, 1]" l
  | Bounded (inner, f) ->
    if not (in_unit f) then bad "bounded floor must be in (0, 1]" f
    else Result.map (fun i -> Bounded (i, f)) (validate inner)
  | Scaled (inner, c) ->
    if not (in_unit c) then bad "scale factor must be in (0, 1]" c
    else Result.map (fun i -> Scaled (i, c)) (validate inner)

let rec step w ~n =
  match w with
  | Equal -> 1.0 /. float_of_int n
  | Exponential l -> l
  | Bounded (inner, f) -> Float.max (step inner ~n) f
  | Scaled (inner, c) -> c *. step inner ~n

let at w ~n =
  if n < 1 then invalid_arg "Weight.at: n must be >= 1";
  (* the first observation defines the mean outright, whatever the
     schedule — an estimator carries no prior *)
  if n = 1 then 1.0 else Float.min 1.0 (step w ~n)

(* [at] for a run of indices, written into a float array so no step is
   boxed: each combinator is one pass over the run.  The steps are in
   (0, 1], so the plain comparisons pick what Float.max/Float.min
   would. *)
let rec fill_steps w ~n0 dst ~pos ~len =
  match w with
  | Equal -> for i = 0 to len - 1 do dst.(pos + i) <- 1.0 /. float_of_int (n0 + i) done
  | Exponential l -> Array.fill dst pos len l
  | Bounded (inner, f) ->
    fill_steps inner ~n0 dst ~pos ~len;
    for i = pos to pos + len - 1 do if f > dst.(i) then dst.(i) <- f done
  | Scaled (inner, c) ->
    fill_steps inner ~n0 dst ~pos ~len;
    for i = pos to pos + len - 1 do dst.(i) <- c *. dst.(i) done

let fill w ~n0 dst ~pos ~len =
  if n0 < 1 then invalid_arg "Weight.fill: n0 must be >= 1";
  if pos < 0 || len < 0 || pos + len > Array.length dst then
    invalid_arg "Weight.fill: run outside the array";
  fill_steps w ~n0 dst ~pos ~len;
  for i = pos to pos + len - 1 do if dst.(i) > 1.0 then dst.(i) <- 1.0 done;
  if n0 = 1 && len > 0 then dst.(pos) <- 1.0

let rec to_string = function
  | Equal -> "equal"
  | Exponential l -> Printf.sprintf "exp:%g" l
  | Bounded (inner, f) -> Printf.sprintf "bounded(%s,%g)" (to_string inner) f
  | Scaled (inner, c) -> Printf.sprintf "scaled(%s,%g)" (to_string inner) c

(* --- parsing ------------------------------------------------------- *)

let error s what =
  Error (Guard.Error.validation ~context:[ ("weight", s) ] what)

let float_of s = try Some (float_of_string (String.trim s)) with _ -> None

(* Split "inner,param" at the last comma outside parentheses, so the
   inner spec may itself contain combinator commas. *)
let split_last_comma s =
  let depth = ref 0 and cut = ref (-1) in
  String.iteri
    (fun i c ->
      match c with
      | '(' -> incr depth
      | ')' -> decr depth
      | ',' when !depth = 0 -> cut := i
      | _ -> ())
    s;
  if !cut < 0 then None
  else Some (String.sub s 0 !cut, String.sub s (!cut + 1) (String.length s - !cut - 1))

let of_string spec =
  let rec go s =
    let s = String.trim s in
    let lower = String.lowercase_ascii s in
    let combinator name mk =
      let prefix = name ^ "(" in
      if
        String.length lower > String.length prefix + 1
        && String.starts_with ~prefix lower
        && lower.[String.length lower - 1] = ')'
      then
        let inner =
          String.sub s (String.length prefix)
            (String.length s - String.length prefix - 1)
        in
        match split_last_comma inner with
        | None -> Some (error spec (name ^ " needs (SPEC,VALUE)"))
        | Some (sub, param) -> (
          match (go sub, float_of param) with
          | Ok w, Some v -> Some (Ok (mk w v))
          | (Error _ as e), _ -> Some e
          | _, None -> Some (error spec (name ^ " parameter is not a number")))
      else None
    in
    if lower = "equal" then Ok Equal
    else
      let exp_prefixes = [ "exp:"; "exponential:" ] in
      match
        List.find_opt (fun p -> String.starts_with ~prefix:p lower) exp_prefixes
      with
      | Some p -> (
        match
          float_of (String.sub s (String.length p) (String.length s - String.length p))
        with
        | Some l -> Ok (Exponential l)
        | None -> error spec "exponential step is not a number")
      | None -> (
        match combinator "bounded" (fun w f -> Bounded (w, f)) with
        | Some r -> r
        | None -> (
          match combinator "scaled" (fun w c -> Scaled (w, c)) with
          | Some r -> r
          | None ->
            error spec
              "expected equal | exp:L | bounded(SPEC,F) | scaled(SPEC,C)"))
  in
  Result.bind (go spec) validate

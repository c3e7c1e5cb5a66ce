type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

(* Shortest %g form that parses back bit-identically; %.17g always does.
   Non-finite floats have no JSON number syntax — "%g" renders them as
   "nan"/"inf", which the ".0" suffix below would turn into tokens our
   own parser (and every other JSON consumer) rejects — so they are
   rendered as the JSON null literal instead.  The exactness check
   compares bit patterns, not values: [float_of_string s = f] is always
   false for NaN (NaN <> NaN) and cannot distinguish -0.0 from 0.0. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else begin
    let exact s = Int64.bits_of_float (float_of_string s) = Int64.bits_of_float f in
    let s = Printf.sprintf "%.12g" f in
    let s = if exact s then s else Printf.sprintf "%.17g" f in
    (* keep the token a float on re-parse: "2" would come back as Int 2 *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* One render repeats few distinct floats: an [eval_batch] answer draws
   every output from the model's leaf table, and most of them need the
   slow [%.17g] fallback.  So [to_string] memoizes [float_repr] for the
   length of one call.  The key is the bit pattern, so [0.0] and [-0.0]
   stay apart; non-finite values never reach the table. *)
module Bits = Hashtbl.Make (struct
  type t = float

  let equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  let hash = Hashtbl.hash
end)

let to_string ?(pretty = true) t =
  let buf = Buffer.create 256 in
  (* created on the first finite float, so float-free renders pay nothing *)
  let memo = ref None in
  let add_float f =
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else begin
      let tbl =
        match !memo with
        | Some tbl -> tbl
        | None ->
          let tbl = Bits.create 64 in
          memo := Some tbl;
          tbl
      in
      match Bits.find tbl f with
      | s -> Buffer.add_string buf s
      | exception Not_found ->
        let s = float_repr f in
        Bits.add tbl f s;
        Buffer.add_string buf s
    end
  in
  let indent depth =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec go depth t =
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float f
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          indent (depth + 1);
          go (depth + 1) item)
        items;
      indent depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          indent (depth + 1);
          escape_string buf k;
          Buffer.add_string buf (if pretty then ": " else ":");
          go (depth + 1) v)
        members;
      indent depth;
      Buffer.add_char buf '}'
  in
  go 0 t;
  if pretty then Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the input string.  The scanner looks
   at [s.[!pos]] directly and allocates only the values it returns.     *)

exception Parse_error of string * int

let is_digit c = c >= '0' && c <= '9'

(* RFC 8259 number syntax over [s.[i..j)]:
   [-? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?].  OCaml's own
   conversions are looser ([+1], [.5], [01], [1.], [1_0]), so a token is
   checked here before they see it. *)
let valid_number s i j =
  (* index after a non-empty run of digits from [k], or -1 *)
  let digits k =
    let e = ref k in
    while !e < j && is_digit s.[!e] do
      incr e
    done;
    if !e = k then -1 else !e
  in
  let at k c = k >= 0 && k < j && s.[k] = c in
  let k = if at i '-' then i + 1 else i in
  let k = if at k '0' then k + 1 else digits k in
  let k = if at k '.' then digits (k + 1) else k in
  let k =
    if at k 'e' || at k 'E' then
      digits (if at (k + 1) '+' || at (k + 1) '-' then k + 2 else k + 1)
    else k
  in
  k = j

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let looking_at c = !pos < n && String.unsafe_get s !pos = c in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if looking_at c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let len = String.length word in
    let rec matches k =
      k = len || (s.[!pos + k] = word.[k] && matches (k + 1))
    in
    if !pos + len <= n && matches 0 then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* index of the first '"' or '\\' at or after [i], or [n] *)
  let rec plain_until i =
    if i < n && match String.unsafe_get s i with '"' | '\\' -> false | _ -> true
    then plain_until (i + 1)
    else i
  in
  let escape buf =
    if !pos >= n then fail "unterminated escape";
    let e = s.[!pos] in
    incr pos;
    match e with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'u' ->
      if !pos + 4 > n then fail "truncated \\u escape";
      let code = ref 0 in
      for k = !pos to !pos + 3 do
        let h = hex_value s.[k] in
        if h < 0 then fail "bad \\u escape";
        code := (!code lsl 4) lor h
      done;
      let code = !code in
      pos := !pos + 4;
      (* escaped code points we emit are all < 0x80; encode the rest
         as UTF-8 so the parser is total on its own output *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    | _ -> fail "unknown escape"
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain_until start in
    if stop < n && s.[stop] = '"' then begin
      (* no escape: the value is a slice of the input *)
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      let buf = Buffer.create (stop - start + 16) in
      let rec loop start stop =
        Buffer.add_substring buf s start (stop - start);
        pos := stop;
        if stop >= n then fail "unterminated string";
        incr pos;
        if s.[stop] = '"' then Buffer.contents buf
        else begin
          escape buf;
          loop !pos (plain_until !pos)
        end
      in
      loop start stop
    end
  in
  let parse_number () =
    let start = !pos in
    if looking_at '-' then incr pos;
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
         | _ -> false
    do
      incr pos
    done;
    let len = !pos - start in
    let tok = String.sub s start len in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
    if not (valid_number s start !pos) then
      fail
        (if tok = "" || tok = "-" then "expected number"
         else if is_float then "bad float literal"
         else "bad number literal");
    if is_float then Float (float_of_string tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None ->
        (* integer overflow: fall back to float *)
        Float (float_of_string tok)
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '[' ->
      incr pos;
      skip_ws ();
      if looking_at ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while looking_at ',' do
          incr pos;
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if looking_at '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let parse_member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let members = ref [ parse_member () ] in
        skip_ws ();
        while looking_at ',' do
          incr pos;
          members := parse_member () :: !members;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !members)
      end
    | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, at) ->
    Error (Printf.sprintf "%s at offset %d" msg at)

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)

let member k = function
  | Obj members -> List.assoc_opt k members
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_int = function
  | Int i -> Some i
  | Null | Bool _ | Float _ | String _ | List _ | Obj _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | Null | Bool _ | String _ | List _ | Obj _ -> None

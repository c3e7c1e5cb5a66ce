(* JSON printer/parser round trips, with the float corners the bench
   report actually hits: non-finite values (render as null — the one
   deliberately lossy corner), signed zero, subnormals, and floats at
   the int/float boundary where %.12g is not injective. *)

let json =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Json.to_string ~pretty:false j))
    ( = )

let parse_ok s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S: %s" s e

(* Round-trip semantics: finite floats are bit-exact, non-finite become
   Null, everything else is structural equality. *)
let rec normalize = function
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.List l -> Json.List (List.map normalize l)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, normalize v)) kvs)
  | j -> j

let rec equal_bits a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
    Int64.bits_of_float x = Int64.bits_of_float y
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 equal_bits xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k, v) (k', v') -> k = k' && equal_bits v v')
         xs ys
  | a, b -> a = b

let roundtrip ?(pretty = false) j =
  let s = Json.to_string ~pretty j in
  let j' = parse_ok s in
  if not (equal_bits (normalize j) j') then
    Alcotest.failf "round trip changed %s -> %s" (Json.to_string ~pretty:false j)
      (Json.to_string ~pretty:false j')

(* ------------------------------------------------------------------ *)
(* Directed corners.                                                   *)

let nonfinite_renders_null () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "render %h" f)
        "null"
        (Json.to_string ~pretty:false (Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity; Float.nan *. -1.0 ];
  (* a non-finite float nested in a report row must still emit a document
     the parser accepts *)
  let row =
    Json.Obj
      [
        ("are", Json.Float Float.nan);
        ("bound", Json.Float Float.infinity);
        ("ok", Json.Float 0.25);
      ]
  in
  Alcotest.check json "nested non-finite"
    (Json.Obj
       [ ("are", Json.Null); ("bound", Json.Null); ("ok", Json.Float 0.25) ])
    (parse_ok (Json.to_string row))

let signed_zero () =
  let s = Json.to_string ~pretty:false (Json.Float (-0.0)) in
  match parse_ok s with
  | Json.Float f ->
    Alcotest.(check int64)
      "bits of -0.0 survive"
      (Int64.bits_of_float (-0.0))
      (Int64.bits_of_float f)
  | j -> Alcotest.failf "-0.0 parsed as %s" (Json.to_string j)

let boundary_floats () =
  List.iter
    (fun f -> roundtrip (Json.Float f))
    [
      0.0;
      -0.0;
      Float.min_float;
      Float.max_float;
      4.94e-324 (* smallest subnormal *);
      0.1;
      1.0 /. 3.0;
      9007199254740993.0 (* 2^53 + 1: rounds, still must round-trip bits *);
      1.7976931348623157e308;
      -2.2250738585072014e-308;
      1e22;
      6.02214076e23;
    ]

let boundary_ints () =
  List.iter
    (fun i -> roundtrip (Json.Int i))
    [ 0; 1; -1; max_int; min_int; 1 lsl 53; (1 lsl 53) + 1 ]

let deep_nesting () =
  let deep = ref (Json.Float Float.nan) in
  for i = 0 to 199 do
    deep :=
      if i mod 2 = 0 then Json.List [ !deep ]
      else Json.Obj [ ("k", !deep) ]
  done;
  roundtrip !deep;
  roundtrip ~pretty:true !deep

(* ------------------------------------------------------------------ *)
(* Property: every constructible value round-trips (modulo the
   documented non-finite -> null collapse).                            *)

let float_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, float);
      (2, map Int64.float_of_bits int64) (* arbitrary bit patterns: hits
                                            NaN payloads, subnormals *);
      (1,
       oneofl
         [
           Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.1;
           9007199254740993.0; Float.max_float; Float.min_float;
         ]);
    ]

let string_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 1 127)) (int_bound 12))

let json_gen =
  let open QCheck.Gen in
  sized_size (int_bound 5) @@ fix (fun self fuel ->
      if fuel = 0 then
        frequency
          [
            (1, return Json.Null);
            (2, map (fun b -> Json.Bool b) bool);
            (3, map (fun i -> Json.Int i) int);
            (3, map (fun f -> Json.Float f) float_gen);
            (2, map (fun s -> Json.String s) string_gen);
          ]
      else
        frequency
          [
            (2, map (fun f -> Json.Float f) float_gen);
            (2,
             map (fun l -> Json.List l)
               (list_size (int_bound 4) (self (fuel - 1))));
            (2,
             map (fun kvs -> Json.Obj kvs)
               (list_size (int_bound 4)
                  (pair string_gen (self (fuel - 1)))));
          ])

let json_arbitrary =
  QCheck.make ~print:(fun j -> Json.to_string ~pretty:false j) json_gen

(* ------------------------------------------------------------------ *)
(* Strict number and escape syntax.  OCaml's own conversions accept
   [+1], [.5], [01], [1.] and a [_] inside [\u] digits; JSON does not,
   so the scanner must reject each with its typed parse error.         *)

let rejects text expected () =
  match Json.of_string text with
  | Ok j ->
    Alcotest.failf "%S parsed as %s" text (Json.to_string ~pretty:false j)
  | Error e -> Alcotest.(check string) text expected e

(* An independent checker for the RFC 8259 number grammar:
   -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
let is_json_number tok =
  let n = String.length tok in
  let digit k = k < n && tok.[k] >= '0' && tok.[k] <= '9' in
  let rec run k = if digit k then run (k + 1) else k in
  let k = if n > 0 && tok.[0] = '-' then 1 else 0 in
  let ok = ref (digit k) in
  let k = if k < n && tok.[k] = '0' then k + 1 else run k in
  let k =
    if k < n && tok.[k] = '.' then begin
      ok := !ok && digit (k + 1);
      run (k + 1)
    end
    else k
  in
  let k =
    if k < n && (tok.[k] = 'e' || tok.[k] = 'E') then begin
      let k = k + 1 in
      let k = if k < n && (tok.[k] = '+' || tok.[k] = '-') then k + 1 else k in
      ok := !ok && digit k;
      run k
    end
    else k
  in
  !ok && k = n

(* The number tokens of a compact rendering: maximal runs of number
   characters outside string literals ([e] only continues a run, so the
   [e] of [true] and [false] is not one). *)
let number_tokens text =
  let toks = ref [] and cur = Buffer.create 16 and in_string = ref false in
  let flush () =
    if Buffer.length cur > 0 then toks := Buffer.contents cur :: !toks;
    Buffer.clear cur
  in
  let escaped = ref false in
  String.iter
    (fun c ->
      if !in_string then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
      end
      else
        match c with
        | '0' .. '9' | '-' | '+' | '.' -> Buffer.add_char cur c
        | ('e' | 'E') when Buffer.length cur > 0 -> Buffer.add_char cur c
        | '"' ->
          flush ();
          in_string := true
        | _ -> flush ())
    text;
  flush ();
  !toks

let grammar_checker_agrees () =
  List.iter
    (fun (tok, ok) ->
      Alcotest.(check bool) tok ok (is_json_number tok))
    [
      ("0", true); ("-0", true); ("12", true); ("1.5", true); ("1e5", true);
      ("-1.25E-7", true); ("1.0e+300", true); ("+1", false); (".5", false);
      ("01", false); ("1.", false); ("-", false); ("1e", false);
      ("1.e5", false); ("--1", false); ("", false);
    ]

(* ------------------------------------------------------------------ *)
(* Reference renderer: the printer as it was before [to_string]
   memoized float rendering, kept verbatim so the memo is checked
   byte for byte against it.  The serve suite renders its reference
   responses with it too.                                              *)

let reference_float_repr f =
  if not (Float.is_finite f) then "null"
  else begin
    let exact s = Int64.bits_of_float (float_of_string s) = Int64.bits_of_float f in
    let s = Printf.sprintf "%.12g" f in
    let s = if exact s then s else Printf.sprintf "%.17g" f in
    (* keep the token a float on re-parse: "2" would come back as Int 2 *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let reference_escape_string buf s =
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

let reference_to_string ?(pretty = true) t =
  let buf = Buffer.create 256 in
  let indent depth =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec go depth t =
    match t with
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Int i -> Buffer.add_string buf (string_of_int i)
    | Json.Float f -> Buffer.add_string buf (reference_float_repr f)
    | Json.String s -> reference_escape_string buf s
    | Json.List [] -> Buffer.add_string buf "[]"
    | Json.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          indent (depth + 1);
          go (depth + 1) item)
        items;
      indent depth;
      Buffer.add_char buf ']'
    | Json.Obj [] -> Buffer.add_string buf "{}"
    | Json.Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          indent (depth + 1);
          reference_escape_string buf k;
          Buffer.add_string buf (if pretty then ": " else ":");
          go (depth + 1) v)
        members;
      indent depth;
      Buffer.add_char buf '}'
  in
  go 0 t;
  if pretty then Buffer.add_char buf '\n';
  Buffer.contents buf

(* Lists drawn with repeats from a small pool of arbitrary bit patterns,
   both signed zeros always in it: the memo's hits and misses, and the
   one pair of keys that compare equal as floats but must not share an
   entry. *)
let repeated_floats =
  let open QCheck.Gen in
  let pool =
    map
      (fun l -> Array.of_list (0.0 :: -0.0 :: l))
      (list_size (int_range 1 8) (map Int64.float_of_bits int64))
  in
  let gen =
    pool >>= fun pool ->
    list_size (int_bound 64)
      (map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)))
  in
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map (Printf.sprintf "%h") l))
    gen

let memo_matches_reference floats =
  let j = Json.List (List.map (fun f -> Json.Float f) floats) in
  let nested = Json.Obj [ ("a", j); ("b", Json.List [ j; j ]) ] in
  List.for_all
    (fun (pretty, j) ->
      String.equal (Json.to_string ~pretty j) (reference_to_string ~pretty j))
    [ (false, j); (true, j); (false, nested); (true, nested) ]

(* ------------------------------------------------------------------ *)
(* Reference string decoder: the character-at-a-time loop the scanner
   used before its [String.sub] fast path.  [body] is the text between
   the quotes; the result is the decoded value, or [None] on a
   malformed escape.                                                   *)

let reference_unquote body =
  let n = String.length body in
  let buf = Buffer.create 16 in
  let rec loop pos =
    if pos >= n then Some (Buffer.contents buf)
    else
      let c = body.[pos] in
      if c <> '\\' then begin
        Buffer.add_char buf c;
        loop (pos + 1)
      end
      else if pos + 1 >= n then None
      else
        let simple ch =
          Buffer.add_char buf ch;
          loop (pos + 2)
        in
        match body.[pos + 1] with
        | '"' -> simple '"'
        | '\\' -> simple '\\'
        | '/' -> simple '/'
        | 'b' -> simple '\b'
        | 'f' -> simple '\012'
        | 'n' -> simple '\n'
        | 'r' -> simple '\r'
        | 't' -> simple '\t'
        | 'u' when pos + 6 <= n -> (
          match int_of_string_opt ("0x" ^ String.sub body (pos + 2) 4) with
          | Some code ->
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf
                (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop (pos + 6)
          | None -> None)
        | _ -> None
  in
  loop 0

(* Bodies of plain runs (never a quote or backslash) and well-formed
   escapes; about a third have no escape at all, the fast path. *)
let string_body =
  let open QCheck.Gen in
  let plain =
    string_size
      ~gen:
        (map Char.chr
           (oneof
              [
                int_range 0x20 0x21; int_range 0x23 0x5b; int_range 0x5d 0xff;
              ]))
      (int_bound 12)
  in
  let hex = oneofl [ '0'; '7'; '9'; 'a'; 'F'; 'c'; 'E' ] in
  let escape =
    oneof
      [
        map (Printf.sprintf "\\%c")
          (oneofl [ '"'; '\\'; '/'; 'b'; 'f'; 'n'; 'r'; 't' ]);
        map
          (fun l -> "\\u" ^ String.of_seq (List.to_seq l))
          (list_repeat 4 hex);
      ]
  in
  let segment = frequency [ (3, plain); (1, escape) ] in
  let escaped = map (String.concat "") (list_size (int_bound 8) segment) in
  QCheck.make ~print:(Printf.sprintf "%S")
    (frequency [ (1, plain); (2, escaped) ])

let string_paths_agree body =
  match (Json.of_string ("\"" ^ body ^ "\""), reference_unquote body) with
  | Ok (Json.String s), Some r -> String.equal s r
  | _ -> false

let suite =
  [
    Alcotest.test_case "non-finite renders null" `Quick nonfinite_renders_null;
    Alcotest.test_case "signed zero" `Quick signed_zero;
    Alcotest.test_case "boundary floats" `Quick boundary_floats;
    Alcotest.test_case "boundary ints" `Quick boundary_ints;
    Alcotest.test_case "deep nesting" `Quick deep_nesting;
    Alcotest.test_case "rejects \\u0_41" `Quick
      (rejects {|"\u0_41"|} "bad \\u escape at offset 3");
    Alcotest.test_case "rejects +1" `Quick
      (rejects "+1" "bad number literal at offset 2");
    Alcotest.test_case "rejects .5" `Quick
      (rejects ".5" "bad float literal at offset 2");
    Alcotest.test_case "rejects 01" `Quick
      (rejects "01" "bad number literal at offset 2");
    Alcotest.test_case "rejects 1." `Quick
      (rejects "1." "bad float literal at offset 2");
    Alcotest.test_case "number grammar checker" `Quick grammar_checker_agrees;
    Util.qtest ~count:500 "rendered numbers are JSON numbers" json_arbitrary
      (fun j ->
        List.for_all is_json_number
          (number_tokens (Json.to_string ~pretty:false j)));
    Util.qtest ~count:500 "memoized floats match the reference renderer"
      repeated_floats memo_matches_reference;
    Util.qtest ~count:500 "fast and escaped string paths agree" string_body
      string_paths_agree;
    Util.qtest ~count:500 "compact round trip" json_arbitrary (fun j ->
        roundtrip ~pretty:false j;
        true);
    Util.qtest ~count:200 "pretty round trip" json_arbitrary (fun j ->
        roundtrip ~pretty:true j;
        true);
  ]

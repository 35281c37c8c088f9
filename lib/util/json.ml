type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  (* the four hex digits of a \u escape, as a UTF-16 code unit *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let hex = String.sub s !pos 4 in
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    (* validate before int_of_string: it accepts '_' and '+' and
       raises Failure (not Parse_error) on garbage *)
    if not (String.for_all is_hex hex) then fail "malformed \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ hex)
  in
  let is_high u = 0xD800 <= u && u <= 0xDBFF in
  let is_low u = 0xDC00 <= u && u <= 0xDFFF in
  (* a high surrogate must be followed at once by an escaped low one *)
  let code_point () =
    let u = hex4 () in
    if is_low u then fail "lone surrogate in \\u escape"
    else if not (is_high u) then u
    else if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
      pos := !pos + 2;
      let lo = hex4 () in
      if not (is_low lo) then fail "lone surrogate in \\u escape";
      0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else fail "lone surrogate in \\u escape"
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point ()))
         | _ -> fail "bad escape");
        go ()
      (* RFC 8259 §7: U+0000..U+001F must be escaped inside strings *)
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

(* ---------------------------------------------------------------- *)
(* Schema accessors                                                  *)
(* ---------------------------------------------------------------- *)

let field obj key =
  match obj with
  | Obj fields ->
    (match List.assoc_opt key fields with
     | Some v -> v
     | None -> raise (Parse_error ("missing field " ^ key)))
  | _ -> raise (Parse_error ("expected an object for " ^ key))

(* Past 2^53 a float no longer represents every integer, so [int_of_float]
   would silently return a neighbour of the written value. *)
let max_exact_int = 9007199254740992.0 (* 2^53 *)

let as_int = function
  | Num f when Float.is_integer f && Float.abs f <= max_exact_int -> int_of_float f
  | Num _ -> raise (Parse_error "integer out of exactly-representable range")
  | _ -> raise (Parse_error "expected an integer")

let as_float = function
  | Num f -> f
  | _ -> raise (Parse_error "expected a number")

let as_list = function
  | Arr vs -> vs
  | _ -> raise (Parse_error "expected an array")

let as_string = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

(* ---------------------------------------------------------------- *)
(* Emission — the exact inverse of [parse]                           *)
(* ---------------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let string_lit s = "\"" ^ escape s ^ "\""

(* The C conversion [Printf] ends in for %f and %g on finite floats:
   same bytes, without the format interpreter, which dominated memo-key
   hashing (every DFG edge is two numbers). *)
external format_float : string -> float -> string = "caml_format_float"

(* Integral doubles in [-2^53, 2^53] print in integer form (as
   [string_of_int] would), everything else via %.17g so doubles survive
   a round trip.  Consequently [to_string (parse (to_string j)) =
   to_string j]. *)
let num_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f <= max_exact_int then format_float "%.0f" f
  else format_float "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> num_to_string f
  | Str s -> string_lit s
  | Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> string_lit k ^ ": " ^ to_string v) fields)
    ^ "}"

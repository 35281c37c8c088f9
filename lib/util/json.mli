(** The repo's one JSON codec.

    Batch requests and answers, daemon replies, repro files, metric and
    flight-recorder dumps and Chrome traces are all built as {!t} values
    and printed with {!to_string}; everything that reads them back uses
    {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Recursive-descent parse of a complete JSON document.  Raises
    {!Parse_error} (never any other exception) on malformed input,
    including trailing content, unescaped control characters
    (U+0000–U+001F) inside strings and [\u] escapes naming a lone
    UTF-16 surrogate.  Strings decode to UTF-8: [\uXXXX] escapes
    become their UTF-8 bytes, surrogate pairs joined into one code
    point, and raw bytes pass through unchanged. *)

val to_string : t -> string
(** Deterministic emission: [", "]-separated members, integral doubles
    in [[-2^53, 2^53]] in integer form, other numbers via [%.17g] (exact
    double round-trip), non-finite numbers as [null].  Strings escape
    quotes, backslashes and control characters and keep every other
    byte raw.  On that domain [to_string (parse (to_string j)) =
    to_string j], which is what the batch memo tables rely on for
    byte-identical warm results. *)

(** {1 Schema accessors}

    All raise {!Parse_error} on a type or range mismatch. *)

val field : t -> string -> t
(** First binding of the key in an object. *)

val as_int : t -> int
(** Integral [Num] within the exactly-representable range ±2^53. *)

val as_float : t -> float

val as_string : t -> string

val as_list : t -> t list

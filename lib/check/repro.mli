(** Replayable counterexample files.

    A repro file is one JSON object — property name, the seed the run
    started from, and the (shrunk) instance in the {!Batch.Instance}
    schema — written and read with {!Util.Json}.
    [isecustom check replay FILE] re-runs exactly the recorded property
    on exactly the recorded instance. *)

(** {1 Codec aliases} *)

(* perfbench/ still names the codec through Check.Repro. *)
type json = Util.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* perfbench/ still catches the codec's error under this name. *)
exception Parse_error of string

(* perfbench/ still calls these four through Check.Repro. *)
val parse : string -> json
val to_string : json -> string
val field : json -> string -> json
val as_float : json -> float

(** {1 Repro files} *)

val write : file:string -> prop:string -> seed:int -> Batch.Instance.t -> unit
(** Atomically write a repro file (temp file + rename). *)

type t = { prop : string; seed : int; instance : Batch.Instance.t }

val read : string -> (t, string) result
(** Parse a repro file; [Error] carries a human-readable reason. *)

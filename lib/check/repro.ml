module J = Util.Json

type json = Util.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error = Util.Json.Parse_error

let parse = J.parse
let to_string = J.to_string
let field = J.field
let as_float = J.as_float

type t = { prop : string; seed : int; instance : Batch.Instance.t }

let version = 1

let write ~file ~prop ~seed inst =
  let body =
    J.to_string
      (J.Obj
         [ ("version", J.Num (float_of_int version));
           ("prop", J.Str prop);
           ("seed", J.Num (float_of_int seed));
           ("instance", Batch.Instance.to_json inst) ])
  in
  let tmp = Printf.sprintf "%s.tmp.%d" file (Unix.getpid ()) in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc body;
      output_char oc '\n');
  Sys.rename tmp file

let read file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text ->
    (match J.parse text with
     | exception J.Parse_error msg -> Error msg
     | j ->
       (match
          let v = J.as_int (J.field j "version") in
          if v <> version then
            raise (J.Parse_error (Printf.sprintf "unsupported version %d" v));
          { prop = J.as_string (J.field j "prop");
            seed = J.as_int (J.field j "seed");
            instance = Batch.Instance.of_json (J.field j "instance") }
        with
        | r when Batch.Instance.valid r.instance -> Ok r
        | _ -> Error "instance violates a constructor precondition"
        | exception J.Parse_error msg -> Error msg))

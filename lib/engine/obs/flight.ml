(* Bounded ring of structured events — a crash flight recorder.  Every
   record takes one mutex-protected array store, so instrumented call
   sites (guard exhaustion, fault injection, cache degrade, pool
   stalls, batch outcomes) can afford it on their slow paths.  The
   ring keeps the most recent [capacity] events; [seq] is a global
   monotone counter, so dropped history is visible as a gap before the
   oldest retained event. *)

type severity = Info | Warn | Crash

let severity_string = function
  | Info -> "info"
  | Warn -> "warn"
  | Crash -> "crash"

let severity_rank = function Info -> 0 | Warn -> 1 | Crash -> 2

type event = {
  seq : int;
  t : float;
  domain : int;
  severity : severity;
  kind : string;
  fields : (string * string) list;
}

let lock = Mutex.create ()
let default_capacity = 1024
let ring = ref (Array.make default_capacity None)
let next = ref 0
let worst = ref Info
let enabled_flag = ref true

let set_enabled b = enabled_flag := b

let protect f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let record ?(severity = Info) kind fields =
  if !enabled_flag then begin
    let t = Unix.gettimeofday () in
    let domain = (Domain.self () :> int) in
    protect (fun () ->
        let seq = !next in
        let r = !ring in
        r.(seq mod Array.length r) <-
          Some { seq; t; domain; severity; kind; fields };
        next := seq + 1;
        if severity_rank severity > severity_rank !worst then worst := severity)
  end

let events () =
  protect (fun () ->
      let r = !ring in
      let cap = Array.length r in
      let stop = !next in
      let start = Stdlib.max 0 (stop - cap) in
      let acc = ref [] in
      for i = stop - 1 downto start do
        match r.(i mod cap) with
        | Some e when e.seq = i -> acc := e :: !acc
        | Some _ | None -> ()
      done;
      !acc)

let worst_severity () = protect (fun () -> !worst)

let clear () =
  protect (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      worst := Info)

let set_capacity n =
  let n = Stdlib.max 1 n in
  protect (fun () ->
      ring := Array.make n None;
      worst := Info)

let capacity () = protect (fun () -> Array.length !ring)

let json_of_event e =
  let open Util.Json in
  to_string
    (Obj
       ([ ("seq", Num (float_of_int e.seq));
          ("t", Num e.t);
          ("domain", Num (float_of_int e.domain));
          ("severity", Str (severity_string e.severity));
          ("kind", Str e.kind) ]
       @ List.map (fun (k, v) -> (k, Str v)) e.fields))

let to_jsonl () =
  String.concat "" (List.map (fun e -> json_of_event e ^ "\n") (events ()))

let write path =
  let dir = Filename.dirname path in
  (if dir <> "" && dir <> "." && not (Sys.file_exists dir) then
     try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_jsonl ()))

(* ------------------------------------------------------------------ *)
(* Arming: dump the ring to a JSONL file when the process ends badly. *)

let armed = ref false
let dumped = ref false

let dump_dir =
  ref (Option.value ~default:"_flight" (Sys.getenv_opt "ISECUSTOM_FLIGHT_DIR"))

let dump_path () =
  Filename.concat !dump_dir (Printf.sprintf "flight-%d.jsonl" (Unix.getpid ()))

let dump_now () =
  if !dumped then None
  else begin
    dumped := true;
    let path = dump_path () in
    match write path with () -> Some path | exception _ -> None
  end

let arm ?dir () =
  Option.iter (fun d -> dump_dir := d) dir;
  if not !armed then begin
    armed := true;
    (* Dump only on abnormal history: a clean run leaves no file. *)
    at_exit (fun () ->
        if severity_rank (worst_severity ()) >= severity_rank Warn then
          ignore (dump_now ()));
    Printexc.set_uncaught_exception_handler (fun exn bt ->
        record ~severity:Crash "uncaught_exception"
          [ ("exn", Printexc.to_string exn) ];
        (match dump_now () with
        | Some path -> Printf.eprintf "flight recorder: dumped %s\n%!" path
        | None -> ());
        Printexc.default_uncaught_exception_handler exn bt)
  end

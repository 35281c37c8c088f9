(* In-memory spans recorded by the benchmark around its own calls into
   the program's layers (the traced run only).  A span's parent is the
   innermost span open on the same thread; spans of one service
   request share that request's id.  Nothing is written until the run
   ends. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;  (** "<layer>.<what>", e.g. "kernels.find" *)
  req : string;  (** request id, "" outside the service workloads *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let open_spans : (int, int list) Hashtbl.t = Hashtbl.create 8
let next_id = ref 1

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let with_span ?(req = "") name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans tid) in
          Hashtbl.replace open_spans tid (id :: stack);
          (id, match stack with p :: _ -> p | [] -> 0))
    in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        locked (fun () ->
            (match Hashtbl.find_opt open_spans tid with
             | Some (_ :: rest) -> Hashtbl.replace open_spans tid rest
             | _ -> ());
            recorded := { id; parent; name; req; t0; t1 } :: !recorded))
  end

let all () = locked (fun () -> List.rev !recorded)

(* Self time: a span's duration minus the part of it its children
   cover.  Children run on the parent's thread, so they never overlap
   one another; each is still clipped to the parent's interval. *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_id s.parent with
      | Some p ->
        let c = Float.max 0. (Float.min s.t1 p.t1 -. Float.max s.t0 p.t0) in
        Hashtbl.replace covered p.id (c +. Option.value ~default:0. (Hashtbl.find_opt covered p.id))
      | None -> ())
    spans;
  List.map
    (fun s ->
      (s, Float.max 0. (s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt covered s.id))))
    spans

(* Σ self time per span name, and per layer (the name's first
   component). *)
let rollup spans =
  let by_name = Hashtbl.create 64 and by_layer = Hashtbl.create 16 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (s, self) ->
      add by_name s.name self;
      let layer = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name in
      add by_layer layer self)
    (self_times spans);
  (by_name, by_layer)

let write_jsonl path spans =
  let module R = Check.Repro in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (R.to_string
               (R.Obj
                  [ ("id", R.Num (float_of_int s.id)); ("parent", R.Num (float_of_int s.parent));
                    ("name", R.Str s.name); ("req", R.Str s.req); ("start", R.Num s.t0);
                    ("end", R.Num s.t1) ]));
          output_char oc '\n')
        spans)

(* Blocking JSONL client for the daemon.  See client.mli. *)

module J = Util.Json

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes read past the last returned line *)
  mutable open_ : bool;
}

let connect ?host ?port ?unix_path () =
  let addr =
    match (unix_path, port) with
    | Some p, _ -> Unix.ADDR_UNIX p
    | None, Some port ->
      let host = Option.value host ~default:"127.0.0.1" in
      Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
    | None, None ->
      invalid_arg "Daemon.Client.connect: need ~port or ~unix_path"
  in
  let dom = match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET in
  let fd = Unix.socket dom Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; buf = Buffer.create 4096; open_ = true }

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let send_line t line =
  if not t.open_ then failwith "Daemon.Client: connection closed";
  if not (Obs.Netio.write_all t.fd (line ^ "\n")) then begin
    close t;
    failwith "Daemon.Client: connection lost on send"
  end

let send t req = send_line t (Batch.Protocol.request_line req)

let recv t =
  if not t.open_ then None
  else
    let chunk = Bytes.create 4096 in
    let rec go () =
      let s = Buffer.contents t.buf in
      match String.index_opt s '\n' with
      | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear t.buf;
        Buffer.add_string t.buf (String.sub s (i + 1) (String.length s - i - 1));
        Some line
      | None -> (
        match Unix.read t.fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
          Buffer.add_subbytes t.buf chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> None)
    in
    go ()

let error_of line =
  match J.parse line with
  | J.Obj fields -> (
    match List.assoc_opt "error" fields with
    | Some (J.Str e) -> Some e
    | _ -> None)
  | _ | (exception J.Parse_error _) -> None

let overloaded line = error_of line = Some "overloaded"

let rpc ?(retries = 10) ?(backoff_s = 0.002) ?deadline_s t req =
  (* [deadline_s] is a wall-clock budget over the whole retry loop, not
     per attempt: a client under a scheduler deadline must not let the
     overload backoff alone eat it. *)
  let give_up_at =
    Option.map (fun d -> Unix.gettimeofday () +. d) deadline_s
  in
  let expired () =
    match give_up_at with
    | None -> false
    | Some at -> Unix.gettimeofday () >= at
  in
  let rec go attempt backoff =
    send t req;
    match recv t with
    | None -> Error "connection closed by daemon"
    | Some line ->
      if overloaded line && attempt < retries && not (expired ()) then begin
        let sleep =
          match give_up_at with
          | None -> backoff
          | Some at -> Float.min backoff (Float.max 0. (at -. Unix.gettimeofday ()))
        in
        Unix.sleepf sleep;
        if expired () then Ok line
        else go (attempt + 1) (Float.min 0.2 (backoff *. 2.))
      end
      else Ok line
  in
  try go 0 backoff_s with Failure msg -> Error msg

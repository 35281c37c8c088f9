(* The resident solver daemon.  See server.mli for the architecture;
   the short version:

     accept domain --- Obs.Netio.accept_loop over the listeners + waker
       `- per connection: a reader thread and a writer thread
            reader: select([conn; waker]) -> parse JSONL request
                    -> admission check -> scheduler -> slot queue
            writer: pops slots in order, awaits pool futures, writes
                    response lines

   The scheduler is deliberately small: admission is an atomic
   counter bounded by [max_inflight] (beyond it the request is shed
   with an explicit "overloaded" response), and an admitted request
   becomes a Pool.submit future running Batch.Service.answer against
   the shared memo under the request class's guard spec.  Response
   order per connection is request order because the slot queue is
   FIFO and the writer resolves slots in sequence. *)

module J = Util.Json

let () =
  Obs.Metrics.declare
    ~help:"Daemon requests, by operation and outcome"
    Obs.Metrics.Counter "daemon.requests";
  Obs.Metrics.declare ~help:"Admitted requests currently in flight"
    Obs.Metrics.Gauge "daemon.inflight";
  Obs.Metrics.declare ~help:"Connections accepted" Obs.Metrics.Counter
    "daemon.connections";
  Obs.Metrics.declare ~help:"Connections currently open" Obs.Metrics.Gauge
    "daemon.conn_active";
  Obs.Metrics.declare ~help:"Admission to execution start" ~unit_s:true
    Obs.Metrics.Hist "daemon.queue_wait_s";
  Obs.Metrics.declare
    ~help:"Connections reaped by hygiene deadlines, by reason"
    Obs.Metrics.Counter "daemon.conn_reaped";
  Obs.Metrics.declare
    ~help:"In-flight requests flagged as wedged by the watchdog, by op"
    Obs.Metrics.Counter "daemon.watchdog_wedged";
  Obs.Metrics.declare
    ~help:"Drains the watchdog found stuck and kicked"
    Obs.Metrics.Counter "daemon.watchdog_stuck_drain";
  Obs.Metrics.declare
    ~help:"Hard accept-loop errors (EMFILE and friends), by errno"
    Obs.Metrics.Counter "daemon.watchdog_accept_errors";
  Obs.Metrics.declare ~help:"Age of the oldest in-flight request"
    ~unit_s:true Obs.Metrics.Gauge "daemon.watchdog_oldest_s"

(* ---------------------------------------------------------------- *)
(* A tiny FIFO handing slots from the reader thread to the writer
   thread of one connection.  [push None] is the end-of-stream
   sentinel. *)

module Fifo = struct
  type 'a t = { m : Mutex.t; cv : Condition.t; q : 'a Queue.t }

  let create () = { m = Mutex.create (); cv = Condition.create (); q = Queue.create () }

  let push t v =
    Mutex.lock t.m;
    Queue.push v t.q;
    Condition.signal t.cv;
    Mutex.unlock t.m

  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.q do
      Condition.wait t.cv t.m
    done;
    let v = Queue.pop t.q in
    Mutex.unlock t.m;
    v
end

type slot =
  | Ready of string  (* shed / parse error / inline-computed response *)
  | Pending of string Engine.Parallel.Pool.future

(* What the watchdog knows about one admitted request: enough to decide
   "this has been in flight far longer than its budget allows" and to
   name it when it is. *)
type inflight_entry = {
  if_id : string;
  if_op : Batch.Protocol.op;
  if_since : float;
  if_budget_s : float option;  (* the class's guard deadline, if any *)
  mutable if_flagged : bool;  (* wedge already reported *)
}

type t = {
  socks : Unix.file_descr list;
  unix_path : string option;
  bound_port : int option;
  drain_flag : bool Atomic.t;
  waker : Obs.Netio.waker;
  max_inflight : int;
  inflight : int Atomic.t;
  served_n : int Atomic.t;
  classes : (Batch.Protocol.op * Engine.Guard.spec) list;
  pool : Engine.Parallel.Pool.t option;
  memo : string Engine.Memo.t option;
  (* connection hygiene *)
  max_request_bytes : int;
  idle_timeout_s : float option;
  line_timeout_s : float option;
  (* watchdog supervision *)
  wedge_grace_s : float;
  drain_grace_s : float;
  watchdog_interval_s : float;
  inflight_m : Mutex.t;
  inflight_tbl : (int, inflight_entry) Hashtbl.t;
  ticket : int Atomic.t;
  watchdog_stop : bool Atomic.t;
  mutable watchdog : Thread.t option;
  conn_m : Mutex.t;
  conn_cv : Condition.t;
  conn_seq : int Atomic.t;
  mutable conns : int;
  mutable conn_fds : (int * Unix.file_descr) list;
  mutable accept_dom : unit Domain.t option;
}

let port t = t.bound_port
let draining t = Atomic.get t.drain_flag
let healthy t = not (draining t)
let served t = Atomic.get t.served_n

let op_label = function
  | Some op -> Batch.Protocol.op_name op
  | None -> "unknown"

let count_request ?op outcome =
  Obs.Metrics.inc
    ~labels:[ ("op", op_label op); ("outcome", outcome) ]
    "daemon.requests"

let error_line ?id msg =
  J.to_string
    (J.Obj
       ((match id with Some i -> [ ("id", J.Str i) ] | None -> [])
       @ [ ("error", J.Str msg) ]))

(* ------------------------- admission ----------------------------- *)

let rec try_admit t =
  let n = Atomic.get t.inflight in
  if n >= t.max_inflight then false
  else if Atomic.compare_and_set t.inflight n (n + 1) then begin
    Obs.Metrics.set "daemon.inflight" (float_of_int (n + 1));
    true
  end
  else try_admit t

let release t =
  let n = Atomic.fetch_and_add t.inflight (-1) in
  Obs.Metrics.set "daemon.inflight" (float_of_int (n - 1))

(* ---------------------- in-flight registry ----------------------- *)

(* Admitted requests sit in a registry keyed by a process-unique
   ticket from admission until completion, so the watchdog can see
   what is in flight, how old it is and what budget it ran under. *)

let register_inflight t (req : Batch.Protocol.request) =
  let budget_s =
    match List.assoc_opt req.Batch.Protocol.op t.classes with
    | Some s -> s.Engine.Guard.deadline_s
    | None -> (Engine.Guard.default_spec ()).Engine.Guard.deadline_s
  in
  let ticket = Atomic.fetch_and_add t.ticket 1 in
  Mutex.lock t.inflight_m;
  Hashtbl.replace t.inflight_tbl ticket
    { if_id = req.Batch.Protocol.id;
      if_op = req.Batch.Protocol.op;
      if_since = Unix.gettimeofday ();
      if_budget_s = budget_s;
      if_flagged = false };
  Mutex.unlock t.inflight_m;
  ticket

let unregister_inflight t ticket =
  Mutex.lock t.inflight_m;
  Hashtbl.remove t.inflight_tbl ticket;
  Mutex.unlock t.inflight_m

(* ------------------------- scheduler ----------------------------- *)

(* One admitted request: queue-wait observed when execution starts,
   the solver run crash-isolated (bounded retry — an injected worker
   fault degrades to an "internal" error response, never a wedged
   connection), the in-flight slot and registry entry released
   whatever happens.  The ["daemon.stall"] fault point delays
   execution 0.3s so tests can stage a wedged request the watchdog
   must flag. *)
let execute t (req : Batch.Protocol.request) ~admitted_at ~ticket () =
  Obs.Metrics.observe "daemon.queue_wait_s"
    (Float.max 0. (Unix.gettimeofday () -. admitted_at));
  Fun.protect
    ~finally:(fun () ->
      release t;
      unregister_inflight t ticket)
    (fun () ->
      if Engine.Fault.fires "daemon.stall" then Thread.delay 0.3;
      let spec = List.assoc_opt req.Batch.Protocol.op t.classes in
      match
        Engine.Parallel.Pool.isolate
          (fun () -> Batch.Service.answer ?memo:t.memo ?spec req)
          ()
      with
      | Ok line ->
        Atomic.incr t.served_n;
        count_request ~op:req.Batch.Protocol.op "ok";
        line
      | Error (err : Engine.Parallel.error) ->
        count_request ~op:req.Batch.Protocol.op "failed";
        Obs.Flight.record ~severity:Obs.Flight.Warn "daemon.request_failed"
          [ ("id", req.Batch.Protocol.id);
            ("op", Batch.Protocol.op_name req.Batch.Protocol.op);
            ("error", err.Engine.Parallel.message) ];
        error_line ~id:req.Batch.Protocol.id
          ("internal: " ^ err.Engine.Parallel.message))

let schedule t line =
  match Batch.Protocol.parse_request line with
  | Error msg ->
    count_request "parse_error";
    Ready (error_line ("parse: " ^ msg))
  | Ok req ->
    if not (try_admit t) then begin
      count_request ~op:req.Batch.Protocol.op "overloaded";
      Obs.Flight.record ~severity:Obs.Flight.Warn "daemon.overloaded"
        [ ("id", req.Batch.Protocol.id);
          ("op", Batch.Protocol.op_name req.Batch.Protocol.op);
          ("inflight", string_of_int (Atomic.get t.inflight)) ];
      Ready (error_line ~id:req.Batch.Protocol.id "overloaded")
    end
    else
      let ticket = register_inflight t req in
      let task = execute t req ~admitted_at:(Unix.gettimeofday ()) ~ticket in
      match t.pool with
      | Some p -> Pending (Engine.Parallel.Pool.submit p task)
      | None -> Ready (task ())

(* ------------------------ connection ----------------------------- *)

(* Reader: buffered line reads multiplexed against the drain waker, so
   a drain interrupts a blocked read immediately.  Lines already read
   are still scheduled; a partial trailing line is abandoned.

   Hygiene deadlines guard the read side against hostile clients: a
   request line larger than [max_request_bytes] (complete or still
   accumulating) is answered with an explicit oversized error and the
   connection reaped before the buffer can grow without bound; a
   connection idle past [idle_timeout_s], or trickling one line slower
   than [line_timeout_s] (slow-loris), is reaped the same way.  The
   select deadline is the nearest of those budgets capped at a 1s
   supervision tick, never the old infinite (-1.0) — a reaped
   connection frees both its systhreads without disturbing any other
   connection. *)
let reader_loop t fd fifo =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let waker_fd = Obs.Netio.waker_fd t.waker in
  let dead = ref false in
  let last_activity = ref (Unix.gettimeofday ()) in
  let line_started = ref None in
  let reap reason msg =
    dead := true;
    Obs.Metrics.inc ~labels:[ ("reason", reason) ] "daemon.conn_reaped";
    Obs.Flight.record ~severity:Obs.Flight.Warn "daemon.conn_reaped"
      [ ("reason", reason) ];
    Engine.Log.info "daemon: reaping connection (%s)" reason;
    Fifo.push fifo (Some (Ready (error_line msg)))
  in
  let oversized () =
    count_request "oversized";
    reap "oversized"
      (Printf.sprintf "oversized: request line exceeds %d bytes"
         t.max_request_bytes)
  in
  let emit_lines () =
    (* schedule every complete line currently buffered *)
    let rec go () =
      if !dead then ()
      else
        let s = Buffer.contents buf in
        match String.index_opt s '\n' with
        | None -> ()
        | Some i ->
          let line = String.sub s 0 i in
          Buffer.clear buf;
          Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
          if String.length line > t.max_request_bytes then oversized ()
          else begin
            if String.trim line <> "" then
              Fifo.push fifo (Some (schedule t line));
            go ()
          end
    in
    go ();
    if not !dead then
      if Buffer.length buf = 0 then line_started := None
      else begin
        if !line_started = None then line_started := Some (Unix.gettimeofday ());
        if Buffer.length buf > t.max_request_bytes then oversized ()
      end
  in
  (* the nearest hygiene deadline, capped at a 1s tick so drain and
     deadline checks never wait on a silent peer *)
  let select_timeout now =
    let until = ref 1.0 in
    (match t.idle_timeout_s with
     | Some d -> until := Float.min !until (d -. (now -. !last_activity))
     | None -> ());
    (match (t.line_timeout_s, !line_started) with
     | Some d, Some t0 -> until := Float.min !until (d -. (now -. t0))
     | _ -> ());
    Float.max 0.01 !until
  in
  let deadline_hit now =
    match (t.idle_timeout_s, t.line_timeout_s, !line_started) with
    | Some d, _, _ when now -. !last_activity >= d ->
      reap "idle"
        (Printf.sprintf "idle: no request for %.0fs — closing" d);
      true
    | _, Some d, Some t0 when now -. t0 >= d ->
      reap "line_timeout"
        (Printf.sprintf
           "timeout: request line not completed within %.0fs — closing" d);
      true
    | _ -> false
  in
  let rec loop () =
    if draining t || !dead then ()
    else
      let now = Unix.gettimeofday () in
      if deadline_hit now then ()
      else
        match Unix.select [ fd; waker_fd ] [] [] (select_timeout now) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | ready, _, _ ->
          if draining t then ()
          else if List.memq fd ready then (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes buf chunk 0 n;
              last_activity := Unix.gettimeofday ();
              emit_lines ();
              loop ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              -> loop ()
            | exception Unix.Unix_error _ -> ())
          else loop ()
  in
  loop ();
  Fifo.push fifo None

(* Writer: resolve slots in request order and send the lines.  A write
   failure (client gone, send timeout) keeps draining the queue so
   every admitted request still completes and releases its slot. *)
let writer_loop fd fifo =
  let rec loop ok =
    match Fifo.pop fifo with
    | None -> ()
    | Some slot ->
      let line =
        match slot with
        | Ready s -> s
        | Pending fut -> Engine.Parallel.Pool.await fut
      in
      let ok = ok && Obs.Netio.write_all fd (line ^ "\n") in
      loop ok
  in
  loop true

let handle_conn t cid fd =
  let finish () =
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Mutex.lock t.conn_m;
    t.conns <- t.conns - 1;
    t.conn_fds <- List.filter (fun (c, _) -> c <> cid) t.conn_fds;
    Obs.Metrics.set "daemon.conn_active" (float_of_int t.conns);
    Condition.broadcast t.conn_cv;
    Mutex.unlock t.conn_m
  in
  Fun.protect ~finally:finish (fun () ->
      (* a dead client must not wedge the writer *)
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
       with Unix.Unix_error _ -> ());
      let fifo = Fifo.create () in
      let writer = Thread.create (fun () -> writer_loop fd fifo) () in
      (try reader_loop t fd fifo
       with e ->
         Obs.Flight.record ~severity:Obs.Flight.Warn "daemon.conn_failed"
           [ ("error", Printexc.to_string e) ];
         Fifo.push fifo None);
      Thread.join writer)

let on_accept t fd _peer =
  if draining t then (try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    let cid = Atomic.fetch_and_add t.conn_seq 1 in
    Mutex.lock t.conn_m;
    t.conns <- t.conns + 1;
    t.conn_fds <- (cid, fd) :: t.conn_fds;
    Obs.Metrics.set "daemon.conn_active" (float_of_int t.conns);
    Mutex.unlock t.conn_m;
    Obs.Metrics.inc "daemon.connections";
    (* the accepted fd inherited O_NONBLOCK on some systems; the
       connection threads want plain blocking reads under select *)
    (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
    ignore (Thread.create (fun () -> handle_conn t cid fd) ())
  end

let on_accept_error t e =
  Obs.Metrics.inc
    ~labels:[ ("error", Unix.error_message e) ]
    "daemon.watchdog_accept_errors";
  Obs.Flight.record ~severity:Obs.Flight.Warn "daemon.accept_error"
    [ ("error", Unix.error_message e);
      ("conns", string_of_int t.conns) ];
  Engine.Log.warn "daemon: accept error (%s) — backing off"
    (Unix.error_message e)

(* --------------------------- watchdog ---------------------------- *)

(* The supervisor thread.  Every tick it
   - flags in-flight requests older than their class deadline plus
     [wedge_grace_s] (each once), and publishes the oldest age;
   - during a drain, force-shuts lingering connection sockets once the
     drain has been stuck past [drain_grace_s] — their readers see EOF
     and unwind, so a silent client cannot pin the drain forever;
   - keeps the shared state coherent with sibling processes: a cache
     generation bump drops the warm memo ({!Engine.Memo.revalidate})
     and dead writers' temp litter is reaped periodically. *)
let watchdog_loop t () =
  let drain_seen = ref None in
  let last_sweep = ref 0. in
  while not (Atomic.get t.watchdog_stop) do
    Thread.delay t.watchdog_interval_s;
    if not (Atomic.get t.watchdog_stop) then begin
      let now = Unix.gettimeofday () in
      (* wedged requests *)
      Mutex.lock t.inflight_m;
      let oldest = ref 0. in
      let wedged = ref [] in
      Hashtbl.iter
        (fun _ e ->
          let age = now -. e.if_since in
          if age > !oldest then oldest := age;
          let allowance =
            Option.value ~default:0. e.if_budget_s +. t.wedge_grace_s
          in
          if (not e.if_flagged) && age > allowance then begin
            e.if_flagged <- true;
            wedged := (e.if_id, e.if_op, age, allowance) :: !wedged
          end)
        t.inflight_tbl;
      Mutex.unlock t.inflight_m;
      Obs.Metrics.set "daemon.watchdog_oldest_s" !oldest;
      List.iter
        (fun (id, op, age, allowance) ->
          Obs.Metrics.inc
            ~labels:[ ("op", Batch.Protocol.op_name op) ]
            "daemon.watchdog_wedged";
          Obs.Flight.record ~severity:Obs.Flight.Warn "daemon.watchdog_wedged"
            [ ("id", id);
              ("op", Batch.Protocol.op_name op);
              ("age_s", Printf.sprintf "%.3f" age);
              ("allowance_s", Printf.sprintf "%.3f" allowance) ];
          Engine.Log.warn
            "daemon: request %s (%s) in flight %.1fs past its %.1fs \
             allowance — wedged?"
            id (Batch.Protocol.op_name op) age allowance)
        !wedged;
      (* stuck drain *)
      if draining t then begin
        (if !drain_seen = None then drain_seen := Some now);
        match !drain_seen with
        | Some t0 when now -. t0 > t.drain_grace_s ->
          Mutex.lock t.conn_m;
          let lingering = t.conn_fds in
          Mutex.unlock t.conn_m;
          if lingering <> [] then begin
            Obs.Metrics.inc "daemon.watchdog_stuck_drain";
            Obs.Flight.record ~severity:Obs.Flight.Warn
              "daemon.watchdog_stuck_drain"
              [ ("connections", string_of_int (List.length lingering));
                ("stuck_s", Printf.sprintf "%.1f" (now -. t0)) ];
            Engine.Log.warn
              "daemon: drain stuck %.1fs with %d connection(s) — forcing \
               them closed"
              (now -. t0) (List.length lingering);
            List.iter
              (fun (_, fd) ->
                try Unix.shutdown fd Unix.SHUTDOWN_ALL
                with Unix.Unix_error _ -> ())
              lingering
          end;
          drain_seen := Some now (* re-arm for stragglers *)
        | _ -> ()
      end
      else drain_seen := None;
      (* cross-process hygiene *)
      (match t.memo with
       | Some m -> ignore (Engine.Memo.revalidate m : bool)
       | None -> ());
      if now -. !last_sweep >= 30. then begin
        last_sweep := now;
        ignore (Engine.Cache.sweep_stale_tmp () : int)
      end
    end
  done

(* --------------------------- lifecycle --------------------------- *)

let start ?(host = "127.0.0.1") ?port ?unix_path ?(max_inflight = 64)
    ?(classes = []) ?pool ?memo ?(max_request_bytes = 1024 * 1024)
    ?(idle_timeout_s = Some 600.) ?(line_timeout_s = Some 60.)
    ?(wedge_grace_s = 30.) ?(drain_grace_s = 30.)
    ?(watchdog_interval_s = 0.25) () =
  if port = None && unix_path = None then
    invalid_arg "Daemon.Server.start: need ~port and/or ~unix_path";
  if max_inflight < 1 then
    invalid_arg "Daemon.Server.start: max_inflight < 1";
  if max_request_bytes < 1 then
    invalid_arg "Daemon.Server.start: max_request_bytes < 1";
  let positive name v =
    if v <= 0. then
      invalid_arg (Printf.sprintf "Daemon.Server.start: %s <= 0" name)
  in
  Option.iter (positive "idle_timeout_s") idle_timeout_s;
  Option.iter (positive "line_timeout_s") line_timeout_s;
  positive "watchdog_interval_s" watchdog_interval_s;
  (* a client vanishing mid-write raises EPIPE in write_all; the
     default SIGPIPE disposition would kill the whole daemon first *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let tcp = Option.map (Obs.Netio.tcp_listener ~host) port in
  let uds =
    try Option.map Obs.Netio.unix_listener unix_path
    with e ->
      Option.iter (fun (s, _) -> try Unix.close s with _ -> ()) tcp;
      raise e
  in
  let socks =
    (match tcp with Some (s, _) -> [ s ] | None -> [])
    @ (match uds with Some s -> [ s ] | None -> [])
  in
  let t =
    { socks;
      unix_path = (match uds with Some _ -> unix_path | None -> None);
      bound_port = Option.map snd tcp;
      drain_flag = Atomic.make false;
      waker = Obs.Netio.waker ();
      max_inflight;
      inflight = Atomic.make 0;
      served_n = Atomic.make 0;
      classes;
      pool;
      memo;
      max_request_bytes;
      idle_timeout_s;
      line_timeout_s;
      wedge_grace_s;
      drain_grace_s;
      watchdog_interval_s;
      inflight_m = Mutex.create ();
      inflight_tbl = Hashtbl.create 64;
      ticket = Atomic.make 0;
      watchdog_stop = Atomic.make false;
      watchdog = None;
      conn_m = Mutex.create ();
      conn_cv = Condition.create ();
      conn_seq = Atomic.make 0;
      conns = 0;
      conn_fds = [];
      accept_dom = None }
  in
  t.accept_dom <-
    Some
      (Domain.spawn
         (Obs.Netio.accept_loop ~listeners:socks ~waker:t.waker
            ~on_error:(on_accept_error t)
            ~stop:(fun () -> draining t)
            ~on_accept:(on_accept t)));
  t.watchdog <- Some (Thread.create (watchdog_loop t) ());
  Engine.Log.info "daemon: listening%s%s"
    (match t.bound_port with
     | Some p -> Printf.sprintf " on 127.0.0.1:%d" p
     | None -> "")
    (match t.unix_path with
     | Some p -> Printf.sprintf " on unix:%s" p
     | None -> "");
  t

let stop t =
  if not (Atomic.exchange t.drain_flag true) then begin
    (* 1. stop accepting — the waker interrupts the blocked select *)
    Obs.Netio.wake t.waker;
    Option.iter Domain.join t.accept_dom;
    t.accept_dom <- None;
    (* 2. finish in-flight: the same waker has every connection reader
       stop consuming; writers flush what was admitted, then each
       connection closes and signals.  The watchdog stays up through
       this wait — a drain stuck past its grace gets its lingering
       sockets kicked. *)
    Mutex.lock t.conn_m;
    while t.conns > 0 do
      Condition.wait t.conn_cv t.conn_m
    done;
    Mutex.unlock t.conn_m;
    (* 3. the drain is complete; retire the watchdog *)
    Atomic.set t.watchdog_stop true;
    Option.iter Thread.join t.watchdog;
    t.watchdog <- None;
    Obs.Netio.close_waker t.waker;
    List.iter
      (fun s -> try Unix.close s with Unix.Unix_error _ -> ())
      t.socks;
    Option.iter
      (fun p -> try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
      t.unix_path;
    Option.iter Engine.Memo.observe_occupancy t.memo;
    Obs.Flight.record "daemon.drained"
      [ ("served", string_of_int (served t)) ];
    Engine.Log.info "daemon: drained, %d request(s) served" (served t)
  end

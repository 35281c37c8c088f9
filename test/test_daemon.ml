(* The resident solver daemon, exercised in-process: concurrent
   clients must see byte-identical golden answers, admission control
   must shed with explicit `overloaded` responses (and never lose or
   corrupt the surviving ones), a drain must flush in-flight work, and
   fault injection must degrade to error responses rather than wedged
   connections. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (if String.trim l = "" then acc else l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let golden file =
  let local = Filename.concat "golden" file in
  if Sys.file_exists local then local else Filename.concat "test/golden" file

let expected = lazy (read_lines (golden "expected.jsonl"))

let requests =
  lazy
    (List.map
       (fun line ->
         match Batch.Protocol.parse_request line with
         | Ok r -> r
         | Error msg ->
           Alcotest.failf "golden case does not parse: %s\n%s" msg line)
       (read_lines (golden "cases.jsonl")))

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "isecustom-daemon-test-%d-%d.sock" (Unix.getpid ())
       !sock_counter)

let fresh_memo () =
  Engine.Memo.create ~shards:4 ~spill:false ~namespace:"daemon-test" ()

(* Start a daemon on a fresh unix socket + a jobs:2 pool, run [f], and
   tear everything down whatever happens. *)
let with_daemon ?max_inflight ?max_request_bytes ?idle_timeout_s
    ?line_timeout_s ?wedge_grace_s ?watchdog_interval_s f =
  let path = fresh_sock () in
  Engine.Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  let d =
    Daemon.Server.start ~unix_path:path ?max_inflight ?max_request_bytes
      ?idle_timeout_s ?line_timeout_s ?wedge_grace_s ?watchdog_interval_s
      ~pool ~memo:(fresh_memo ()) ()
  in
  Fun.protect ~finally:(fun () -> Daemon.Server.stop d) (fun () -> f path d)

let repro_field line name =
  match Util.Json.parse line with
  | Util.Json.Obj fields -> (
    match List.assoc_opt name fields with
    | Some (Util.Json.Str s) -> Some s
    | _ -> None)
  | _ | (exception Util.Json.Parse_error _) -> None

(* N clients, each on its own connection and thread, each replaying the
   whole golden corpus: every response must be byte-identical to the
   committed expectation, concurrently and on a warm memo. *)
let test_concurrent_clients_byte_identical () =
  with_daemon @@ fun path _d ->
  let reqs = Lazy.force requests in
  let want = Lazy.force expected in
  let failures = Atomic.make [] in
  let client i () =
    let c = Daemon.Client.connect ~unix_path:path () in
    Fun.protect
      ~finally:(fun () -> Daemon.Client.close c)
      (fun () ->
        List.iteri
          (fun j (req, want) ->
            match Daemon.Client.rpc c req with
            | Ok got when got = want -> ()
            | Ok got ->
              Atomic.set failures
                (Printf.sprintf "client %d line %d:\nwant %s\ngot  %s" i j
                   want got
                :: Atomic.get failures)
            | Error msg ->
              Atomic.set failures
                (Printf.sprintf "client %d line %d: %s" i j msg
                :: Atomic.get failures))
          (List.combine reqs want))
  in
  let threads = List.init 4 (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  (match Atomic.get failures with
   | [] -> ()
   | fs -> Alcotest.fail (String.concat "\n---\n" fs));
  check bool "every request answered" true (Daemon.Server.served _d >= 4 * List.length reqs)

(* A generated stream of 40 distinct requests, each sent twice: a cold
   one-shot batch, a cold daemon pass, a memo-warm daemon pass and 4
   concurrent warm clients must all answer exactly like the sequential
   solver, and the concurrent pass must feed the queue-wait histogram. *)
let test_generated_stream_cold_and_warm () =
  let reqs = Test_helpers.op_stream ~prefix:"d" ~seed:500 ~instances:8 ~copies:2 in
  let want = List.map Batch.Service.respond reqs in
  let cold, _ =
    Engine.Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
    Batch.Service.run ~pool ~memo:(fresh_memo ()) reqs
  in
  check bool "cold batch byte-identical" true (cold = want);
  with_daemon @@ fun path _d ->
  let replay () =
    let c = Daemon.Client.connect ~unix_path:path () in
    Fun.protect
      ~finally:(fun () -> Daemon.Client.close c)
      (fun () ->
        List.map
          (fun req ->
            match Daemon.Client.rpc c req with
            | Ok line -> line
            | Error msg -> failwith msg)
          reqs)
  in
  check bool "cold daemon pass byte-identical" true (replay () = want);
  check bool "warm daemon pass byte-identical" true (replay () = want);
  let s0 = Obs.Snapshot.take () in
  let drifted = Atomic.make 0 in
  let client () =
    match replay () with
    | got when got = want -> ()
    | _ | (exception _) -> Atomic.incr drifted
  in
  List.iter Thread.join (List.init 4 (fun _ -> Thread.create client ()));
  check int "concurrent clients byte-identical" 0 (Atomic.get drifted);
  let d = Obs.Snapshot.delta ~before:s0 ~after:(Obs.Snapshot.take ()) in
  check bool "queue wait sampled" true
    (Obs.Snapshot.hist_stats d "daemon.queue_wait_s" <> None)

(* The isegen curve subset of the corpus, replayed over a live
   connection: the daemon's memo/dedup path must keep the iterative
   generator's responses byte-identical to the committed expectations,
   just like the exhaustive ones. *)
let test_isegen_subset_byte_identical () =
  with_daemon @@ fun path _d ->
  let subset =
    List.filter
      (fun ((r : Batch.Protocol.request), _) ->
        r.Batch.Protocol.generator = Ise.Isegen.Isegen)
      (List.combine (Lazy.force requests) (Lazy.force expected))
  in
  check bool "corpus contains isegen cases" true (List.length subset >= 4);
  let c = Daemon.Client.connect ~unix_path:path () in
  Fun.protect
    ~finally:(fun () -> Daemon.Client.close c)
    (fun () ->
      List.iteri
        (fun i ((req : Batch.Protocol.request), want) ->
          match Daemon.Client.rpc c req with
          | Ok got ->
            check string (Printf.sprintf "isegen reply %d intact" i) want got
          | Error msg -> Alcotest.failf "isegen request %d died: %s" i msg)
        subset)

(* max_inflight = 1 with a pool: pipelining the corpus down one
   connection must shed at least one request with an explicit
   `overloaded` response — and every request still gets exactly one
   reply, the surviving ones byte-identical.  The shed itself is a
   race against the pool finishing each request, so the burst is
   retried a few times; in practice the first attempt sheds. *)
let test_overload_sheds_explicitly () =
  with_daemon ~max_inflight:1 @@ fun path _d ->
  let reqs = Lazy.force requests in
  let want = Lazy.force expected in
  let n = List.length reqs in
  let burst () =
    let c = Daemon.Client.connect ~unix_path:path () in
    Fun.protect
      ~finally:(fun () -> Daemon.Client.close c)
      (fun () ->
        List.iter (Daemon.Client.send c) reqs;
        let got =
          List.init n (fun i ->
              match Daemon.Client.recv c with
              | Some line -> line
              | None -> Alcotest.failf "connection closed after %d replies" i)
        in
        check bool "no extra replies buffered" true true;
        got)
  in
  let rec attempt k =
    let got = burst () in
    let overloaded = List.filter Daemon.Client.overloaded got in
    if overloaded = [] && k < 10 then attempt (k + 1)
    else begin
      check bool "at least one request shed" true (overloaded <> []);
      List.iteri
        (fun i (((req : Batch.Protocol.request), want), got) ->
          if Daemon.Client.overloaded got then
            check string
              (Printf.sprintf "shed reply %d carries the request id" i)
              req.Batch.Protocol.id
              (Option.value ~default:"<none>" (repro_field got "id"))
          else
            check string (Printf.sprintf "surviving reply %d intact" i) want got)
        (List.combine (List.combine reqs want) got)
    end
  in
  attempt 0

(* Drain: a response already computed (or in flight) when [stop] is
   called must still reach the client before the connection closes,
   and once drained the listener is gone. *)
let test_drain_flushes_and_refuses () =
  let path = fresh_sock () in
  Engine.Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  let d =
    Daemon.Server.start ~unix_path:path ~pool ~memo:(fresh_memo ()) ()
  in
  let req = List.hd (Lazy.force requests) in
  let want = List.hd (Lazy.force expected) in
  let c = Daemon.Client.connect ~unix_path:path () in
  Daemon.Client.send c req;
  (* wait until the request has actually executed, so stop() races only
     with the writer, which the drain contract covers *)
  let deadline = Unix.gettimeofday () +. 10. in
  while Daemon.Server.served d < 1 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  check int "request executed before stop" 1 (Daemon.Server.served d);
  check bool "healthy before stop" true (Daemon.Server.healthy d);
  Daemon.Server.stop d;
  check bool "draining after stop" true (Daemon.Server.draining d);
  check bool "unhealthy after stop" false (Daemon.Server.healthy d);
  (match Daemon.Client.recv c with
   | Some got -> check string "in-flight response flushed by drain" want got
   | None -> Alcotest.fail "drain dropped the in-flight response");
  check bool "connection closed after drain" true (Daemon.Client.recv c = None);
  Daemon.Client.close c;
  (match Daemon.Client.connect ~unix_path:path () with
   | exception Unix.Unix_error _ -> ()
   | c2 ->
     Daemon.Client.close c2;
     Alcotest.fail "daemon still accepting after drain");
  (* idempotent *)
  Daemon.Server.stop d

(* Fault injection (`parallel.worker`, the spec ISECUSTOM_FAULT_SPEC
   carries in CI): every request still gets exactly one reply on a
   surviving connection — either the correct bytes or an explicit
   internal error, never a hang or a dropped id. *)
let test_fault_injection_never_wedges () =
  let spec =
    match Engine.Fault.parse "seed=11,parallel.worker=0.4" with
    | Ok s -> s
    | Error msg -> Alcotest.failf "fault spec: %s" msg
  in
  Engine.Fault.configure spec;
  Fun.protect ~finally:Engine.Fault.disable @@ fun () ->
  with_daemon @@ fun path _d ->
  let reqs = Lazy.force requests in
  let want = Lazy.force expected in
  let c = Daemon.Client.connect ~unix_path:path () in
  Fun.protect
    ~finally:(fun () -> Daemon.Client.close c)
    (fun () ->
      let internals = ref 0 in
      List.iteri
        (fun i ((req : Batch.Protocol.request), want) ->
          match Daemon.Client.rpc c req with
          | Error msg -> Alcotest.failf "request %d: connection died: %s" i msg
          | Ok got -> (
            match Daemon.Client.error_of got with
            | None ->
              check string (Printf.sprintf "reply %d intact under faults" i)
                want got
            | Some err ->
              incr internals;
              check bool
                (Printf.sprintf "reply %d is an internal error" i)
                true
                (String.length err >= 9 && String.sub err 0 9 = "internal:");
              check string
                (Printf.sprintf "error reply %d carries the request id" i)
                req.Batch.Protocol.id
                (Option.value ~default:"<none>" (repro_field got "id"))))
        (List.combine reqs want);
      (* not an assertion on the rate — just surface the count so a
         silently-inert fault point is visible in the test output *)
      Printf.printf "fault test: %d/%d requests degraded to internal errors\n"
        !internals (List.length reqs))

(* ----------------------- hostile conditions ----------------------- *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let counter_delta ?labels name f =
  let before = Option.value ~default:0. (Obs.Metrics.value ?labels name) in
  f ();
  Option.value ~default:0. (Obs.Metrics.value ?labels name) -. before

(* A line past --max-request-bytes is answered with an explicit
   oversized error and the connection closed — and the daemon itself
   survives to serve the next client. *)
let test_oversized_line_reaped () =
  with_daemon ~max_request_bytes:256 @@ fun path d ->
  let delta =
    counter_delta ~labels:[ ("reason", "oversized") ] "daemon.conn_reaped"
      (fun () ->
        let c = Daemon.Client.connect ~unix_path:path () in
        Fun.protect
          ~finally:(fun () -> Daemon.Client.close c)
          (fun () ->
            Daemon.Client.send_line c (String.make 1024 'x');
            (match Daemon.Client.recv c with
             | None -> Alcotest.fail "closed without an error line"
             | Some line ->
               check bool "explicit oversized error" true
                 (match Daemon.Client.error_of line with
                  | Some err -> starts_with "oversized:" err
                  | None -> false));
            check bool "connection closed after the error" true
              (Daemon.Client.recv c = None)))
  in
  check bool "reap counted under its reason" true (delta >= 1.);
  check bool "daemon still healthy" true (Daemon.Server.healthy d);
  (* a fresh connection still gets parse errors answered — alive *)
  let c2 = Daemon.Client.connect ~unix_path:path () in
  Fun.protect
    ~finally:(fun () -> Daemon.Client.close c2)
    (fun () ->
      Daemon.Client.send_line c2 "not json";
      match Daemon.Client.recv c2 with
      | Some line ->
        check bool "daemon still answering" true
          (match Daemon.Client.error_of line with
           | Some err -> starts_with "parse:" err
           | None -> false)
      | None -> Alcotest.fail "daemon dead after reaping one client")

(* Garbage is answered with a parse error on a connection that keeps
   working: the next (valid) request on the same connection must still
   come back byte-identical. *)
let test_garbage_keeps_connection () =
  with_daemon @@ fun path _d ->
  let req = List.hd (Lazy.force requests) in
  let want = List.hd (Lazy.force expected) in
  let c = Daemon.Client.connect ~unix_path:path () in
  Fun.protect
    ~finally:(fun () -> Daemon.Client.close c)
    (fun () ->
      Daemon.Client.send_line c "{\"op\": \"no such thing\"";
      (match Daemon.Client.recv c with
       | Some line ->
         check bool "garbage gets a parse error" true
           (match Daemon.Client.error_of line with
            | Some err -> starts_with "parse:" err
            | None -> false)
       | None -> Alcotest.fail "connection dropped on garbage");
      match Daemon.Client.rpc c req with
      | Ok got -> check string "same connection still serves" want got
      | Error msg -> Alcotest.failf "connection dead after garbage: %s" msg)

(* A connection that goes silent past --idle-timeout is reaped with an
   explicit error line, promptly. *)
let test_idle_connection_reaped () =
  with_daemon ~idle_timeout_s:(Some 0.2) @@ fun path _d ->
  let c = Daemon.Client.connect ~unix_path:path () in
  Fun.protect
    ~finally:(fun () -> Daemon.Client.close c)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      (match Daemon.Client.recv c with
       | Some line ->
         check bool "idle reap is explicit" true
           (match Daemon.Client.error_of line with
            | Some err -> starts_with "idle:" err
            | None -> false)
       | None -> Alcotest.fail "closed without an error line");
      check bool "connection closed" true (Daemon.Client.recv c = None);
      check bool "reaped promptly, not at the old infinite select" true
        (Unix.gettimeofday () -. t0 < 5.))

(* Slow-loris: trickling a request line without ever finishing it must
   trip the line-completion deadline even though the connection is
   never idle long enough for the idle reaper. *)
let test_slow_loris_reaped () =
  with_daemon ~idle_timeout_s:(Some 30.) ~line_timeout_s:(Some 0.3)
  @@ fun path _d ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let t0 = Unix.gettimeofday () in
      (* keep the connection active but never complete the line *)
      let loris =
        Thread.create
          (fun () ->
            try
              for _ = 1 to 20 do
                ignore (Unix.write_substring fd "x" 0 1 : int);
                Unix.sleepf 0.05
              done
            with Unix.Unix_error _ -> ())
          ()
      in
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        | exception Unix.Unix_error _ -> ()
      in
      drain ();
      Thread.join loris;
      let first_line =
        let s = Buffer.contents buf in
        match String.index_opt s '\n' with
        | Some i -> String.sub s 0 i
        | None -> s
      in
      check bool "explicit timeout error before EOF" true
        (match Daemon.Client.error_of first_line with
         | Some err -> starts_with "timeout:" err
         | None -> false);
      check bool "reaped near the line deadline" true
        (Unix.gettimeofday () -. t0 < 5.))

(* A request stuck well past its class allowance must be flagged by the
   watchdog (metric + flight event) while still completing normally —
   the ["daemon.stall"] fault point stages the wedge
   deterministically. *)
let test_watchdog_flags_wedged_request () =
  (match Engine.Fault.parse "seed=7,daemon.stall=1x1" with
   | Ok spec -> Engine.Fault.configure spec
   | Error msg -> Alcotest.failf "fault spec: %s" msg);
  Fun.protect ~finally:Engine.Fault.disable @@ fun () ->
  with_daemon ~wedge_grace_s:0.05 ~watchdog_interval_s:0.02
  @@ fun path _d ->
  let req = List.hd (Lazy.force requests) in
  let want = List.hd (Lazy.force expected) in
  let seq0 =
    match List.rev (Obs.Flight.events ()) with
    | [] -> -1
    | e :: _ -> e.Obs.Flight.seq
  in
  let delta =
    counter_delta
      ~labels:[ ("op", Batch.Protocol.op_name req.Batch.Protocol.op) ]
      "daemon.watchdog_wedged"
      (fun () ->
        let c = Daemon.Client.connect ~unix_path:path () in
        Fun.protect
          ~finally:(fun () -> Daemon.Client.close c)
          (fun () ->
            match Daemon.Client.rpc c req with
            | Ok got ->
              check string "wedged request still completes correctly" want got
            | Error msg -> Alcotest.failf "stalled request died: %s" msg))
  in
  check bool "wedge counted once, not per tick" true (delta = 1.);
  let flagged =
    List.exists
      (fun (e : Obs.Flight.event) ->
        e.Obs.Flight.seq > seq0
        && e.Obs.Flight.kind = "daemon.watchdog_wedged"
        && List.assoc_opt "id" e.Obs.Flight.fields
           = Some req.Batch.Protocol.id)
      (Obs.Flight.events ())
  in
  check bool "flight event names the wedged request" true flagged

(* rpc ~deadline_s: against a server that sheds every request, the
   retry loop must give up at the wall-clock budget — not at the retry
   cap — and surface the last overloaded line. *)
let test_rpc_deadline_bounds_retries () =
  let path = fresh_sock () in
  let lsock = Obs.Netio.unix_listener path in
  let stop = Atomic.make false in
  let server () =
    while not (Atomic.get stop) do
      match Unix.select [ lsock ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept lsock with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          let b = Bytes.create 4096 in
          let rec serve () =
            match Unix.read fd b 0 (Bytes.length b) with
            | 0 -> ()
            | n ->
              String.iter
                (fun ch ->
                  if ch = '\n' then
                    ignore
                      (Obs.Netio.write_all fd
                         "{\"id\": \"x\", \"error\": \"overloaded\"}\n"
                        : bool))
                (Bytes.sub_string b 0 n);
              serve ()
            | exception Unix.Unix_error _ -> ()
          in
          serve ();
          (try Unix.close fd with Unix.Unix_error _ -> ()))
    done;
    try Unix.close lsock with Unix.Unix_error _ -> ()
  in
  let th = Thread.create server () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th;
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      let c = Daemon.Client.connect ~unix_path:path () in
      Fun.protect
        ~finally:(fun () -> Daemon.Client.close c)
        (fun () ->
          let req = List.hd (Lazy.force requests) in
          let t0 = Unix.gettimeofday () in
          match
            Daemon.Client.rpc ~retries:1_000_000 ~backoff_s:0.01
              ~deadline_s:0.25 c req
          with
          | Error msg -> Alcotest.failf "rpc died: %s" msg
          | Ok line ->
            let dt = Unix.gettimeofday () -. t0 in
            check bool "last overloaded line surfaced as Ok" true
              (Daemon.Client.overloaded line);
            check bool "kept retrying until the budget" true (dt >= 0.2);
            check bool "gave up at the budget, not the retry cap" true
              (dt < 2.)))

let () =
  Alcotest.run "daemon"
    [ ( "daemon",
        [ Alcotest.test_case "concurrent clients byte-identical" `Quick
            test_concurrent_clients_byte_identical;
          Alcotest.test_case "isegen subset byte-identical" `Quick
            test_isegen_subset_byte_identical;
          Alcotest.test_case "generated stream cold and warm" `Quick
            test_generated_stream_cold_and_warm;
          Alcotest.test_case "overload sheds explicitly" `Quick
            test_overload_sheds_explicitly;
          Alcotest.test_case "drain flushes and refuses" `Quick
            test_drain_flushes_and_refuses;
          Alcotest.test_case "fault injection never wedges" `Quick
            test_fault_injection_never_wedges ] );
      ( "hostile",
        [ Alcotest.test_case "oversized line reaped" `Quick
            test_oversized_line_reaped;
          Alcotest.test_case "garbage keeps the connection" `Quick
            test_garbage_keeps_connection;
          Alcotest.test_case "idle connection reaped" `Quick
            test_idle_connection_reaped;
          Alcotest.test_case "slow-loris reaped" `Quick
            test_slow_loris_reaped;
          Alcotest.test_case "watchdog flags a wedged request" `Quick
            test_watchdog_flags_wedged_request;
          Alcotest.test_case "rpc deadline bounds retries" `Quick
            test_rpc_deadline_bounds_retries ] ) ]

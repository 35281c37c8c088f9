(* Observability tests: Prometheus text-format conformance (checked by
   parsing the exposition back with a line-format parser), flight-ring
   wraparound and cross-domain ordering, snapshot deltas under a pooled
   workload, the --stats tables, label-cell sums, and an in-process
   HTTP round-trip against the /metrics endpoint. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let eps = Alcotest.float 1e-9

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* ------------------- Prometheus line-format parser -------------------

   A deliberately strict reading of the v0.0.4 text format: comment
   lines are HELP/TYPE, sample lines are name + optional label set +
   float, with backslash/quote/newline escapes in label values.
   Anything else fails the test. *)

type line =
  | Help of string * string
  | Type of string * string
  | Sample of string * (string * string) list * float

let parse_value = function
  | "+Inf" -> infinity
  | "-Inf" -> neg_infinity
  | "NaN" -> Float.nan
  | s -> float_of_string s

let parse_labels s =
  let n = String.length s in
  let rec pairs i acc =
    if i >= n then List.rev acc
    else
      let j =
        match String.index_from_opt s i '=' with
        | Some j -> j
        | None -> Alcotest.failf "label without '=': %s" s
      in
      let key = String.sub s i (j - i) in
      if j + 1 >= n || s.[j + 1] <> '"' then
        Alcotest.failf "label value not quoted: %s" s;
      let b = Buffer.create 16 in
      let rec value k =
        if k >= n then Alcotest.failf "unterminated label value: %s" s
        else
          match s.[k] with
          | '\\' ->
            if k + 1 >= n then Alcotest.failf "dangling escape: %s" s;
            (match s.[k + 1] with
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | 'n' -> Buffer.add_char b '\n'
            | c -> Alcotest.failf "bad escape \\%c in %s" c s);
            value (k + 2)
          | '"' -> k + 1
          | c ->
            Buffer.add_char b c;
            value (k + 1)
      in
      let k = value (j + 2) in
      let acc = (key, Buffer.contents b) :: acc in
      if k >= n then List.rev acc
      else if s.[k] = ',' then pairs (k + 1) acc
      else Alcotest.failf "junk after label value: %s" s
  in
  pairs 0 []

let parse_line ln =
  let after prefix =
    String.sub ln (String.length prefix) (String.length ln - String.length prefix)
  in
  if ln = "" then None
  else if String.starts_with ~prefix:"# HELP " ln then begin
    let rest = after "# HELP " in
    let sp = String.index rest ' ' in
    Some
      (Help
         ( String.sub rest 0 sp,
           String.sub rest (sp + 1) (String.length rest - sp - 1) ))
  end
  else if String.starts_with ~prefix:"# TYPE " ln then begin
    let rest = after "# TYPE " in
    let sp = String.index rest ' ' in
    Some
      (Type
         ( String.sub rest 0 sp,
           String.sub rest (sp + 1) (String.length rest - sp - 1) ))
  end
  else if ln.[0] = '#' then None
  else
    (* [value] is a float, so the last '}' on the line closes the label
       set even when label values themselves contain braces. *)
    match String.index_opt ln '{' with
    | Some i ->
      let close = String.rindex ln '}' in
      let v =
        parse_value (String.trim (String.sub ln (close + 1) (String.length ln - close - 1)))
      in
      Some (Sample (String.sub ln 0 i, parse_labels (String.sub ln (i + 1) (close - i - 1)), v))
    | None ->
      let sp = String.index ln ' ' in
      Some
        (Sample
           ( String.sub ln 0 sp,
             [],
             parse_value (String.sub ln (sp + 1) (String.length ln - sp - 1)) ))

let parse_exposition text =
  List.filter_map parse_line (String.split_on_char '\n' text)

let sample lines name labels =
  let want = List.sort compare labels in
  List.find_map
    (function
      | Sample (n, ls, v) when n = name && List.sort compare ls = want ->
        Some v
      | _ -> None)
    lines

let typed lines name =
  List.find_map
    (function Type (n, k) when n = name -> Some k | _ -> None)
    lines

(* ----------------------------- Prometheus ---------------------------- *)

let weird_label = "qu\"ote\\back\nnewline"

let test_prometheus_roundtrip () =
  Obs.Metrics.reset ();
  check string "empty registry renders empty" "" (Obs.Prometheus.render ());
  Obs.Metrics.declare ~help:"ops by kind" Obs.Metrics.Counter "t.ops";
  Obs.Metrics.inc ~labels:[ ("op", "edf") ] ~by:3. "t.ops";
  Obs.Metrics.inc ~labels:[ ("op", weird_label) ] "t.ops";
  Obs.Metrics.set ~labels:[ ("shard", "0") ] "t.items" 7.;
  Obs.Metrics.declare ~help:"latency" ~unit_s:true Obs.Metrics.Hist "t.lat";
  Obs.Metrics.observe "t.lat" 0.001;
  Obs.Metrics.observe "t.lat" 0.4;
  Obs.Metrics.observe "t.lat" 3.0;
  Obs.Metrics.declare ~help:"declared, never sampled" Obs.Metrics.Gauge
    "t.silent";
  let text = Obs.Prometheus.render () in
  let lines = parse_exposition text in
  (* counter cells round-trip, including the escaped label value *)
  check (Alcotest.option eps) "labeled counter" (Some 3.)
    (sample lines "t_ops_total" [ ("op", "edf") ]);
  check (Alcotest.option eps) "escaped label round-trips" (Some 1.)
    (sample lines "t_ops_total" [ ("op", weird_label) ]);
  check (Alcotest.option eps) "gauge" (Some 7.)
    (sample lines "t_items" [ ("shard", "0") ]);
  (* histogram: _seconds unit suffix, exact ladder counts, +Inf = count *)
  check (Alcotest.option eps) "hist count" (Some 3.)
    (sample lines "t_lat_seconds_count" []);
  (match sample lines "t_lat_seconds_sum" [] with
  | Some s -> check eps "hist sum" 3.401 s
  | None -> Alcotest.fail "missing t_lat_seconds_sum");
  check (Alcotest.option eps) "le=2 bucket" (Some 2.)
    (sample lines "t_lat_seconds_bucket" [ ("le", "2") ]);
  check (Alcotest.option eps) "le=16 bucket" (Some 3.)
    (sample lines "t_lat_seconds_bucket" [ ("le", "16") ]);
  check (Alcotest.option eps) "+Inf bucket equals count" (Some 3.)
    (sample lines "t_lat_seconds_bucket" [ ("le", "+Inf") ]);
  (* cumulative bucket counts never decrease as le grows *)
  let buckets =
    List.filter_map
      (function
        | Sample ("t_lat_seconds_bucket", ls, v) ->
          Some (parse_value (List.assoc "le" ls), v)
        | _ -> None)
      lines
  in
  check int "full ladder plus +Inf"
    (List.length Obs.Prometheus.ladder_exponents + 1)
    (List.length buckets);
  ignore
    (List.fold_left
       (fun (ple, pv) (le, v) ->
         check bool "ladder sorted" true (le > ple);
         check bool "cumulative monotone" true (v >= pv);
         (le, v))
       (neg_infinity, 0.) buckets);
  (* every family, including declared-but-unsampled ones, is typed *)
  check (Alcotest.option string) "counter TYPE" (Some "counter")
    (typed lines "t_ops_total");
  check (Alcotest.option string) "gauge TYPE" (Some "gauge")
    (typed lines "t_items");
  check (Alcotest.option string) "histogram TYPE" (Some "histogram")
    (typed lines "t_lat_seconds");
  check (Alcotest.option string) "unsampled family still typed"
    (Some "gauge") (typed lines "t_silent");
  check bool "HELP emitted" true
    (List.exists (function Help ("t_ops_total", _) -> true | _ -> false) lines);
  (* conformance: every sample belongs to a typed family *)
  let strip name =
    List.fold_left
      (fun n suf ->
        if String.ends_with ~suffix:suf n then
          String.sub n 0 (String.length n - String.length suf)
        else n)
      name
      [ "_bucket"; "_sum"; "_count" ]
  in
  List.iter
    (function
      | Sample (n, _, _) ->
        if typed lines n = None && typed lines (strip n) = None then
          Alcotest.failf "sample %s has no TYPE line" n
      | _ -> ())
    lines

let test_prometheus_name_sanitization () =
  check string "dots to underscores" "cache_hits"
    (Obs.Prometheus.sanitize_name "cache.hits");
  check string "leading digit guarded" "_2nd"
    (Obs.Prometheus.sanitize_name "2nd");
  check string "escape backslash quote newline" "a\\\\b\\\"c\\nd"
    (Obs.Prometheus.escape_label_value "a\\b\"c\nd");
  check string "integer values unpadded" "42"
    (Obs.Prometheus.format_value 42.);
  check string "infinity spelled +Inf" "+Inf"
    (Obs.Prometheus.format_value infinity)

(* --------------------------- Flight recorder -------------------------- *)

let test_flight_wraparound () =
  Obs.Flight.set_capacity 8;
  for i = 1 to 20 do
    Obs.Flight.record "t.wrap" [ ("i", string_of_int i) ]
  done;
  let evs = Obs.Flight.events () in
  check int "ring retains capacity" 8 (List.length evs);
  let is =
    List.map
      (fun e -> int_of_string (List.assoc "i" e.Obs.Flight.fields))
      evs
  in
  check (Alcotest.list int) "last 8 events, oldest first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ] is;
  ignore
    (List.fold_left
       (fun prev e ->
         check bool "seq strictly ascending" true (e.Obs.Flight.seq > prev);
         e.Obs.Flight.seq)
       (-1) evs);
  Obs.Flight.set_capacity 1024

let test_flight_multidomain_order () =
  Obs.Flight.set_capacity 1024;
  let workers = 4 and per = 50 in
  let doms =
    List.init workers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Obs.Flight.record "t.md"
                [ ("w", string_of_int w); ("i", string_of_int i) ]
            done))
  in
  List.iter Domain.join doms;
  let evs = Obs.Flight.events () in
  check int "all events retained" (workers * per) (List.length evs);
  ignore
    (List.fold_left
       (fun prev e ->
         check bool "one global order" true (e.Obs.Flight.seq > prev);
         e.Obs.Flight.seq)
       (-1) evs);
  (* interleaving is arbitrary, but each domain's events keep their
     program order in the global sequence *)
  List.iter
    (fun w ->
      let is =
        List.filter_map
          (fun e ->
            if List.assoc "w" e.Obs.Flight.fields = string_of_int w then
              Some (int_of_string (List.assoc "i" e.Obs.Flight.fields))
            else None)
          evs
      in
      check (Alcotest.list int)
        (Printf.sprintf "domain %d program order" w)
        (List.init per Fun.id) is)
    (List.init workers Fun.id);
  Obs.Flight.clear ()

let test_flight_write_and_severity () =
  Obs.Flight.clear ();
  check string "clear resets high-water" "info"
    (Obs.Flight.severity_string (Obs.Flight.worst_severity ()));
  Obs.Flight.record "t.quiet" [];
  Obs.Flight.record ~severity:Obs.Flight.Warn "t.write" [ ("x", "1") ];
  check string "warn is sticky" "warn"
    (Obs.Flight.severity_string (Obs.Flight.worst_severity ()));
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "obs-flight-test-%d.jsonl" (Unix.getpid ()))
  in
  Obs.Flight.write path;
  let ic = open_in path in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  let jlines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  check int "one JSONL line per event" 2 (List.length jlines);
  check bool "event kind serialized" true (contains body "t.write");
  check bool "severity serialized" true (contains body "warn");
  check bool "field serialized" true (contains body "\"x\"");
  Obs.Flight.clear ()

(* ------------------------------ Snapshot ------------------------------ *)

let test_snapshot_delta_pooled () =
  Obs.Metrics.set ~labels:[ ("which", "lvl") ] "t.level" 5.;
  let s0 = Obs.Snapshot.take () in
  let n = 200 in
  Engine.Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Engine.Parallel.Pool.map pool
           (fun i ->
             Obs.Metrics.inc
               ~labels:[ ("w", string_of_int (i mod 3)) ]
               "t.pooled";
             Obs.Metrics.observe "t.pooled_lat"
               (0.001 *. float_of_int (1 + (i mod 10)));
             Obs.Metrics.set ~labels:[ ("which", "lvl") ] "t.level"
               (float_of_int i);
             i)
           (List.init n Fun.id)));
  Obs.Metrics.set ~labels:[ ("which", "lvl") ] "t.level" 9.;
  let s1 = Obs.Snapshot.take () in
  let d = Obs.Snapshot.delta ~before:s0 ~after:s1 in
  (* the delta of every counter family equals the sequential difference
     of the two snapshots — pool counters included *)
  List.iter
    (fun (f : Obs.Metrics.family) ->
      if f.Obs.Metrics.fam_kind = Obs.Metrics.Counter then
        let name = f.Obs.Metrics.fam_name in
        check eps
          (Printf.sprintf "%s delta = after - before" name)
          (Obs.Snapshot.counter s1 name -. Obs.Snapshot.counter s0 name)
          (Obs.Snapshot.counter d name))
    (Obs.Snapshot.families d);
  check eps "exactly one inc per item" (float_of_int n)
    (Obs.Snapshot.counter d "t.pooled");
  check eps "per-cell delta" 67.
    (Obs.Snapshot.counter ~labels:[ ("w", "0") ] d "t.pooled");
  check eps "pool processed every item" (float_of_int n)
    (Obs.Snapshot.counter d "pool.items"
    -. Obs.Snapshot.counter d "pool.steals" *. 0.);
  (match Obs.Snapshot.hist_stats d "t.pooled_lat" with
  | None -> Alcotest.fail "histogram delta missing"
  | Some (h : Obs.Metrics.hstats) ->
    check int "histogram count delta" n h.Obs.Metrics.count;
    (match
       ( Obs.Snapshot.hist_data s1 "t.pooled_lat",
         Obs.Snapshot.hist_data s0 "t.pooled_lat" )
     with
    | Some a, Some b ->
      check eps "histogram sum delta is sequential diff"
        (a.Obs.Metrics.hsum -. b.Obs.Metrics.hsum)
        h.Obs.Metrics.sum
    | Some a, None -> check eps "histogram sum delta" a.Obs.Metrics.hsum h.Obs.Metrics.sum
    | None, _ -> Alcotest.fail "after snapshot missing histogram"));
  (* gauges are levels: the delta reports the after value *)
  check eps "gauge keeps after level" 9.
    (Obs.Snapshot.gauge ~labels:[ ("which", "lvl") ] d "t.level")

let test_snapshot_json_shapes () =
  let s0 = Obs.Snapshot.take () in
  Obs.Metrics.inc ~by:4. "t.json_counter";
  Obs.Metrics.inc_s "t.json_timer" 0.125;
  Obs.Metrics.observe "t.json_hist" 0.25;
  let d = Obs.Snapshot.delta ~before:s0 ~after:(Obs.Snapshot.take ()) in
  let tj = Util.Json.to_string (Obs.Snapshot.telemetry_json d) in
  check bool "counters half" true (contains tj "\"counters\"");
  check bool "timers half" true (contains tj "\"timers\"");
  check bool "counter value" true (contains tj "\"t.json_counter\": 4");
  check bool "timer value" true (contains tj "\"t.json_timer\": 0.125");
  let hj = Util.Json.to_string (Obs.Snapshot.histograms_json d) in
  check bool "histogram entry" true (contains hj "\"t.json_hist\"");
  check bool "histogram stats fields" true (contains hj "\"p99\"")

(* The tables behind --stats and `isecustom stats`: only what moved
   after the baseline shows, and an empty delta says so. *)
let test_snapshot_tables () =
  let render d = Format.asprintf "%a" Obs.Snapshot.pp d in
  let s0 = Obs.Snapshot.take () in
  let empty = render (Obs.Snapshot.delta ~before:s0 ~after:s0) in
  check bool "empty telemetry message" true
    (contains empty "no telemetry recorded");
  check bool "empty histograms message" true
    (contains empty "no histograms recorded");
  Obs.Metrics.inc "t.pp_before";
  Obs.Metrics.inc_s "t.pp_before_s" 1.;
  Obs.Metrics.observe "t.pp_before_h" 1.;
  let baseline = Obs.Snapshot.take () in
  Obs.Metrics.inc ~by:3. "t.pp_counter";
  Obs.Metrics.time_s "t.pp_timer" ignore;
  Obs.Metrics.inc_s "t.pp_timer" 0.5;
  Obs.Metrics.observe "t.pp_hist" 0.25;
  let out =
    render (Obs.Snapshot.delta ~before:baseline ~after:(Obs.Snapshot.take ()))
  in
  check bool "counter row" true
    (contains out (Printf.sprintf "%-32s %14d\n" "t.pp_counter" 3));
  check bool "timer row in seconds" true
    (contains out (Printf.sprintf "%-32s %12s s\n" "t.pp_timer" "0.500"));
  check bool "histogram row" true
    (contains out (Printf.sprintf "%-32s %8d " "t.pp_hist" 1));
  check bool "nothing recorded before the baseline" false
    (contains out "t.pp_before");
  check bool "no empty-table message" false
    (contains out "no telemetry recorded" || contains out "no histograms recorded")

(* ------------------------------ Interop ------------------------------- *)

let test_label_cells_sum () =
  Obs.Metrics.inc ~labels:[ ("k", "a") ] ~by:2. "t.interop";
  Obs.Metrics.inc ~labels:[ ("k", "b") ] ~by:5. "t.interop";
  check eps "family read sums label cells" 7. (Obs.Metrics.sum "t.interop")

(* ----------------------------- Kind clash ----------------------------- *)

let golden file =
  let local = Filename.concat "golden" file in
  if Sys.file_exists local then local else Filename.concat "test/golden" file

let golden_requests () =
  let ic = open_in (golden "cases.jsonl") in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l when String.trim l = "" -> go acc
        | l -> (
          match Batch.Protocol.parse_request l with
          | Ok r -> go (r :: acc)
          | Error msg -> Alcotest.failf "golden case does not parse: %s" msg)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Every instrumented solver path writes each family with one kind:
   a clash silently drops samples, so a solver that reuses a counter's
   name for its histogram loses its whole distribution. *)
let test_solvers_no_kind_clash () =
  let s0 = Obs.Snapshot.take () in
  let inst = Check.Gen.instance (Util.Prng.create 11) in
  let tasks = Batch.Instance.tasks inst in
  let budget = inst.Batch.Instance.budget in
  ignore (Core.Edf_select.run ~budget tasks : Core.Selection.t);
  ignore
    (Core.Edf_select.run_sweep ~budgets:[ budget / 2; budget ] tasks
      : Core.Selection.t list);
  ignore (Core.Rms_select.run ~budget tasks : Core.Selection.t option);
  ignore
    (Ise.Curve.generate ~params:Ise.Curve.small (Kernels.find "crc32")
      : Isa.Config.t);
  let entities =
    List.map
      (fun (ts : Batch.Instance.task_spec) ->
        Array.of_list
          (List.map
             (fun (p : Batch.Instance.curve_point) ->
               { Pareto.Mo_select.delta = float_of_int (ts.base - p.cycles);
                 cost = p.area })
             ts.points))
      inst.Batch.Instance.tasks
  in
  ignore
    (Pareto.Mo_select.exact_front_guarded ~base:1000. entities
      : Util.Pareto_front.point list * Engine.Guard.status);
  ignore
    (Pareto.Mo_select.approx_front ~eps:0.5 ~base:1000. entities
      : Util.Pareto_front.point list);
  ignore (Batch.Service.run (golden_requests ()));
  let p = Reconfig.Synthetic.generate ~seed:5 ~loops:6 in
  ignore (Reconfig.Algorithms.iterative p : Reconfig.Problem.placement);
  ignore (Reconfig.Algorithms.greedy p : Reconfig.Problem.placement);
  ignore (Reconfig.Algorithms.exhaustive p : Reconfig.Problem.placement option);
  let m =
    { Rtreconfig.Model.tasks =
        [ Rtreconfig.Model.task ~name:"a" ~period:100 ~wcet:60 [ (20, 30); (30, 60) ];
          Rtreconfig.Model.task ~name:"b" ~period:150 ~wcet:90 [ (40, 50) ];
          Rtreconfig.Model.task ~name:"c" ~period:400 ~wcet:100 [ (50, 40); (70, 80) ] ];
      max_area = 90;
      reconfig_cost = 5 }
  in
  ignore (Rtreconfig.Solvers.dp m : Rtreconfig.Model.placement);
  ignore (Rtreconfig.Solvers.static m : Rtreconfig.Model.placement);
  ignore (Rtreconfig.Solvers.optimal m : Rtreconfig.Model.placement);
  let d = Obs.Snapshot.delta ~before:s0 ~after:(Obs.Snapshot.take ()) in
  check eps "no kind clash" 0. (Obs.Snapshot.counter d "obs.kind_clash");
  check eps "exhaustive counts every partition of 6 loops" 203.
    (Obs.Snapshot.counter d "reconfig.partitions");
  check bool "optimal counts its nodes" true (Obs.Snapshot.counter d "rtreconfig.nodes" > 0.);
  check bool "Pareto DP cells counted" true
    (Obs.Snapshot.counter d "pareto.dp_cells" > 0.);
  match Obs.Snapshot.hist_stats d "edf.dp_cells_per_solve" with
  | Some (h : Obs.Metrics.hstats) ->
    check bool "one sample per EDF solve" true (h.Obs.Metrics.count >= 2)
  | None -> Alcotest.fail "edf.dp_cells_per_solve has no samples"

(* Batch.Service.run counts each request under its op; the daemon
   counts its own daemon_requests_total instead, so this is where the
   batch family's labeled cells are checked. *)
let test_batch_requests_exposed () =
  let reqs = List.filteri (fun i _ -> i < 6) (golden_requests ()) in
  ignore (Batch.Service.run reqs);
  let text = Obs.Prometheus.render () in
  check bool "batch_requests_total has op cells" true
    (List.exists
       (String.starts_with ~prefix:"batch_requests_total{op=\"")
       (String.split_on_char '\n' text))

(* ------------------------------- Serve -------------------------------- *)

let test_serve_roundtrip () =
  let srv = Obs.Serve.start ~port:0 () in
  let port =
    match Obs.Serve.port srv with
    | Some p -> p
    | None -> Alcotest.fail "no bound port"
  in
  let get path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let req =
          Printf.sprintf
            "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
            path
        in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let b = Buffer.create 4096 in
        let buf = Bytes.create 4096 in
        let rec drain () =
          let k = Unix.read fd buf 0 (Bytes.length buf) in
          if k > 0 then begin
            Buffer.add_subbytes b buf 0 k;
            drain ()
          end
        in
        (try drain () with Unix.Unix_error _ -> ());
        Buffer.contents b)
  in
  Obs.Metrics.inc ~labels:[ ("op", "probe") ] "t.serve";
  let h = get "/healthz" in
  check bool "healthz 200" true (String.starts_with ~prefix:"HTTP/1.1 200" h);
  check bool "healthz body" true (contains h "ok");
  let m = get "/metrics" in
  check bool "metrics 200" true (String.starts_with ~prefix:"HTTP/1.1 200" m);
  check bool "prometheus content type" true (contains m "version=0.0.4");
  check bool "live family served" true
    (contains m "t_serve_total{op=\"probe\"} 1");
  let nf = get "/nope" in
  check bool "unknown path 404" true
    (String.starts_with ~prefix:"HTTP/1.1 404" nf);
  Obs.Serve.stop srv;
  Obs.Serve.stop srv (* idempotent *)

let () =
  Alcotest.run "obs"
    [ ( "prometheus",
        [ Alcotest.test_case "exposition round-trip" `Quick
            test_prometheus_roundtrip;
          Alcotest.test_case "name and value formatting" `Quick
            test_prometheus_name_sanitization ] );
      ( "flight",
        [ Alcotest.test_case "ring wraparound" `Quick test_flight_wraparound;
          Alcotest.test_case "multi-domain ordering" `Quick
            test_flight_multidomain_order;
          Alcotest.test_case "write and severity" `Quick
            test_flight_write_and_severity ] );
      ( "snapshot",
        [ Alcotest.test_case "delta under pooled workload" `Quick
            test_snapshot_delta_pooled;
          Alcotest.test_case "json shapes" `Quick test_snapshot_json_shapes;
          Alcotest.test_case "stats tables" `Quick test_snapshot_tables ] );
      ( "interop",
        [ Alcotest.test_case "label cells sum in family reads" `Quick
            test_label_cells_sum;
          Alcotest.test_case "solvers write each family with one kind" `Quick
            test_solvers_no_kind_clash;
          Alcotest.test_case "batch requests exposed by op" `Quick
            test_batch_requests_exposed ] );
      ( "serve",
        [ Alcotest.test_case "http round-trip" `Quick test_serve_roundtrip ] )
    ]

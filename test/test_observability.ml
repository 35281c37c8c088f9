(* Observability layer tests: span nesting and ordering (also across
   Parallel domains), Chrome trace JSON well-formedness, histogram
   percentile accuracy against known distributions, log-level filtering
   and JSONL sink output, and Obs.Snapshot JSON validity on the edge
   cases (empty registries, names containing quotes, infinite
   timers). *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* JSON is read back with the repo's one codec, whose parser rejects
   anything RFC 8259 does not allow. *)
open Util.Json

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------------- Trace -------------------------------- *)

let with_tracing f =
  Engine.Trace.reset ();
  Engine.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Engine.Trace.set_enabled false;
      Engine.Trace.reset ())
    f

let find_spans name spans =
  List.filter (fun (s : Engine.Trace.span) -> s.name = name) spans

let test_span_nesting () =
  with_tracing @@ fun () ->
  let x =
    Engine.Trace.with_span "outer" ~attrs:[ ("k", "v") ] @@ fun () ->
    ignore (Engine.Trace.with_span "inner.first" (fun () -> 1));
    ignore (Engine.Trace.with_span "inner.second" (fun () -> 2));
    42
  in
  check int "with_span returns the thunk's result" 42 x;
  let spans = Engine.Trace.spans () in
  check int "three spans recorded" 3 (List.length spans);
  match (find_spans "outer" spans, find_spans "inner.first" spans,
         find_spans "inner.second" spans)
  with
  | [ outer ], [ first ], [ second ] ->
    check bool "outer is a root" true (outer.parent = None);
    check bool "first nests under outer" true (first.parent = Some outer.id);
    check bool "second nests under outer" true (second.parent = Some outer.id);
    check bool "children within parent's window" true
      (outer.t_start <= first.t_start && second.t_end <= outer.t_end);
    check bool "siblings ordered" true (first.t_end <= second.t_start);
    check bool "attrs kept" true (outer.attrs = [ ("k", "v") ]);
    (match Engine.Trace.tree () with
     | [ root ] ->
       check int "tree has one root" 2 (List.length root.Engine.Trace.children);
       check bool "children in start order" true
         (List.map
            (fun (t : Engine.Trace.tree) -> t.span.name)
            root.Engine.Trace.children
         = [ "inner.first"; "inner.second" ])
     | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots))
  | _ -> Alcotest.fail "missing spans"

let test_span_exception () =
  with_tracing @@ fun () ->
  (try Engine.Trace.with_span "thrower" (fun () -> failwith "boom")
   with Failure _ -> ());
  match Engine.Trace.spans () with
  | [ s ] ->
    check Alcotest.string "span recorded on exception" "thrower" s.name;
    check bool "span closed" true (s.t_end >= s.t_start)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_span_disabled () =
  Engine.Trace.reset ();
  Engine.Trace.set_enabled false;
  ignore (Engine.Trace.with_span "ghost" (fun () -> 7));
  check int "disabled tracing records nothing" 0
    (List.length (Engine.Trace.spans ()))

let test_spans_across_domains () =
  with_tracing @@ fun () ->
  let items = List.init 16 Fun.id in
  let squares =
    Engine.Trace.with_span "parallel.region" @@ fun () ->
    Engine.Parallel.Pool.with_pool ~jobs:4 @@ fun pool ->
    Engine.Parallel.Pool.map pool
      (fun i ->
        Engine.Trace.with_span "worker.item" (fun () ->
            (* a little real blocking per item so the resident worker
               domains actually get scheduled: with helping-await on a
               single core the caller could otherwise drain every item
               itself and the off-main-domain assertion below would be
               vacuous *)
            Unix.sleepf 0.002;
            i * i))
      items
  in
  check (Alcotest.list int) "results undisturbed" (List.map (fun i -> i * i) items)
    squares;
  let spans = Engine.Trace.spans () in
  let region =
    match find_spans "parallel.region" spans with
    | [ s ] -> s
    | _ -> Alcotest.fail "region span missing"
  in
  let workers = find_spans "worker.item" spans in
  check int "every item traced" (List.length items) (List.length workers);
  List.iter
    (fun (w : Engine.Trace.span) ->
      check bool "worker span parented to the region" true
        (w.parent = Some region.id))
    workers;
  check bool "some span recorded off the main domain" true
    (List.exists (fun (w : Engine.Trace.span) -> w.domain <> region.domain)
       workers);
  (* all workers land under the one region root in the tree *)
  match Engine.Trace.tree () with
  | [ root ] ->
    check int "tree gathers all workers" (List.length items)
      (List.length root.Engine.Trace.children)
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_chrome_json_round_trip () =
  with_tracing @@ fun () ->
  ignore
    (Engine.Trace.with_span "outer" ~attrs:[ ("quote", {|he said "hi"|}) ]
       (fun () -> Engine.Trace.with_span "inner" (fun () -> 0)));
  let j = parse (Engine.Trace.to_chrome_json ()) in
  match member "traceEvents" j with
  | Some (Arr events) ->
    check int "one event per span" 2 (List.length events);
    List.iter
      (fun ev ->
        check bool "complete event" true (member "ph" ev = Some (Str "X"));
        (match (member "ts" ev, member "dur" ev) with
         | Some (Num ts), Some (Num dur) ->
           check bool "non-negative timestamps" true (ts >= 0. && dur >= 0.)
         | _ -> Alcotest.fail "ts/dur missing");
        match member "name" ev with
        | Some (Str ("outer" | "inner")) -> ()
        | _ -> Alcotest.fail "unexpected event name")
      events
  | _ -> Alcotest.fail "traceEvents missing"

(* ----------------------------- Histogram ------------------------------ *)

let test_histogram_percentiles () =
  Obs.Metrics.reset ~kind:Obs.Metrics.Hist ();
  for v = 1 to 1000 do
    Obs.Metrics.observe "t.h" (float_of_int v)
  done;
  match Obs.Metrics.hist_stats "t.h" with
  | None -> Alcotest.fail "stats missing"
  | Some s ->
    check int "count" 1000 s.count;
    check (Alcotest.float 1e-6) "sum" 500500. s.sum;
    check (Alcotest.float 1e-6) "min" 1. s.min;
    check (Alcotest.float 1e-6) "max" 1000. s.max;
    (* log-scale buckets are ~9% wide; quantiles must land within one
       bucket of the true rank value *)
    check bool "p50 near 500" true (s.p50 >= 450. && s.p50 <= 550.);
    check bool "p90 near 900" true (s.p90 >= 810. && s.p90 <= 990.);
    check bool "p99 near 990" true (s.p99 >= 891. && s.p99 <= 1000.);
    check bool "quantiles monotone" true (s.p50 <= s.p90 && s.p90 <= s.p99);
    (match Obs.Metrics.hist_quantile "t.h" 1.0 with
     | Some q -> check (Alcotest.float 1e-6) "q=1 clamps to max" 1000. q
     | None -> Alcotest.fail "quantile missing")

let test_histogram_constant_and_empty () =
  Obs.Metrics.reset ~kind:Obs.Metrics.Hist ();
  check bool "empty histogram has no stats" true
    (Obs.Metrics.hist_stats "t.none" = None);
  for _ = 1 to 5 do Obs.Metrics.observe "t.const" 42. done;
  (match Obs.Metrics.hist_stats "t.const" with
   | Some s ->
     check (Alcotest.float 1e-6) "constant p50 exact" 42. s.p50;
     check (Alcotest.float 1e-6) "constant p99 exact" 42. s.p99
   | None -> Alcotest.fail "stats missing");
  Obs.Metrics.observe "t.nan" Float.nan;
  check bool "non-finite samples dropped" true
    (Obs.Metrics.hist_stats "t.nan" = None);
  Obs.Metrics.reset ~kind:Obs.Metrics.Hist ();
  check bool "reset drops histograms" true
    (List.for_all
       (fun (f : Obs.Metrics.family) -> f.fam_kind <> Obs.Metrics.Hist)
       (Obs.Metrics.dump ()))

let test_histogram_json () =
  Obs.Metrics.reset ~kind:Obs.Metrics.Hist ();
  let json () = parse (to_string (Obs.Snapshot.histograms_json (Obs.Snapshot.take ()))) in
  check bool "empty registry is valid JSON" true (json () = Obj []);
  Obs.Metrics.observe {|na"me|} 3.5;
  match member {|na"me|} (json ()) with
  | Some h ->
    check bool "count serialised" true (member "count" h = Some (Num 1.))
  | None -> Alcotest.fail "quoted histogram name lost"

(* -------------------------------- Log --------------------------------- *)

let with_log_capture f =
  let buf = Buffer.create 256 in
  let bfmt = Format.formatter_of_buffer buf in
  let saved_level = Engine.Log.level () in
  Engine.Log.set_formatter bfmt;
  Fun.protect
    ~finally:(fun () ->
      Engine.Log.set_formatter Format.err_formatter;
      Engine.Log.set_level saved_level)
    (fun () ->
      f ();
      Format.pp_print_flush bfmt ();
      Buffer.contents buf)

let contains ~needle hay =
  let n = String.length hay and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
  scan 0

let test_log_level_filtering () =
  let out =
    with_log_capture (fun () ->
        Engine.Log.set_level Engine.Log.Warn;
        Engine.Log.err "e-%d" 1;
        Engine.Log.warn "w-%d" 2;
        Engine.Log.info "i-%d" 3;
        Engine.Log.debug "d-%d" 4)
  in
  check bool "error passes" true (contains ~needle:"e-1" out);
  check bool "warn passes" true (contains ~needle:"w-2" out);
  check bool "info filtered" false (contains ~needle:"i-3" out);
  check bool "debug filtered" false (contains ~needle:"d-4" out);
  check bool "level tag printed" true (contains ~needle:"error" out);
  let verbose =
    with_log_capture (fun () ->
        Engine.Log.set_level Engine.Log.Debug;
        Engine.Log.debug "d-%d" 9)
  in
  check bool "debug passes at Debug" true (contains ~needle:"d-9" verbose)

let test_log_level_of_string () =
  check bool "debug parses" true
    (Engine.Log.level_of_string "DeBuG" = Ok Engine.Log.Debug);
  check bool "warning alias" true
    (Engine.Log.level_of_string "warning" = Ok Engine.Log.Warn);
  check bool "junk rejected" true
    (match Engine.Log.level_of_string "loud" with Error _ -> true | Ok _ -> false)

let test_log_jsonl_sink () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "iselog-test-%d.jsonl" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  ignore
    (with_log_capture (fun () ->
         Engine.Log.set_level Engine.Log.Info;
         Engine.Log.set_json_file (Some path);
         Fun.protect
           ~finally:(fun () -> Engine.Log.set_json_file None)
           (fun () ->
             Engine.Log.info {|said "hi" to %s|} "world";
             Engine.Log.debug "filtered out";
             Engine.Log.warn "second line")));
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let rec all acc =
          match input_line ic with
          | line -> all (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        all [])
  in
  check int "filtered records stay out of the sink" 2 (List.length lines);
  List.iter
    (fun line ->
      let j = parse line in
      check bool "ts is a number" true
        (match member "ts" j with Some (Num _) -> true | _ -> false);
      check bool "level is a string" true
        (match member "level" j with Some (Str _) -> true | _ -> false))
    lines;
  match parse (List.hd lines) |> member "msg" with
  | Some (Str msg) ->
    check Alcotest.string "message round-trips quotes" {|said "hi" to world|} msg
  | _ -> Alcotest.fail "msg missing"

(* ----------------------------- Telemetry ------------------------------ *)

let test_telemetry_json_valid () =
  Obs.Metrics.reset ~kind:Obs.Metrics.Counter ();
  let json () = parse (to_string (Obs.Snapshot.telemetry_json (Obs.Snapshot.take ()))) in
  (match json () with
   | Obj [ ("counters", Obj []); ("timers", Obj []) ] -> ()
   | _ -> Alcotest.fail "empty tables must serialise to empty objects");
  Obs.Metrics.inc ~by:3. {|weird "name"|};
  Obs.Metrics.inc_s "t.inf" Float.infinity;
  let j = json () in
  (match member "counters" j with
   | Some counters ->
     check bool "quoted counter name survives" true
       (member {|weird "name"|} counters = Some (Num 3.))
   | None -> Alcotest.fail "counters missing");
  (match member "timers" j with
   | Some timers ->
     check bool "non-finite timer becomes null" true
       (member "t.inf" timers = Some Null)
   | None -> Alcotest.fail "timers missing");
  Obs.Metrics.reset ~kind:Obs.Metrics.Counter ()

(* ------------------------- pipeline end-to-end ------------------------ *)

let test_pipeline_span_tree () =
  with_tracing @@ fun () ->
  Obs.Metrics.reset ~kind:Obs.Metrics.Hist ();
  ignore
    (Ise.Curve.generate ~params:Ise.Curve.small (Kernels.find "crc32")
      : Isa.Config.t);
  let spans = Engine.Trace.spans () in
  let generate =
    match find_spans "curve.generate" spans with
    | [ s ] -> s
    | ss -> Alcotest.failf "expected 1 generate span, got %d" (List.length ss)
  in
  let under parent (s : Engine.Trace.span) = s.parent = Some parent.Engine.Trace.id in
  (match find_spans "curve.candidates" spans with
   | [ c ] ->
     check bool "candidates under generate" true (under generate c);
     check bool "enumeration under candidates" true
       (List.for_all (under c) (find_spans "enumerate.connected" spans));
     check bool "enumeration present" true
       (find_spans "enumerate.connected" spans <> [])
   | ss -> Alcotest.failf "expected 1 candidates span, got %d" (List.length ss));
  let selects =
    find_spans "select.bnb" spans @ find_spans "select.greedy" spans
  in
  check bool "selection spans under generate" true
    (selects <> [] && List.for_all (fun s -> under generate s) selects);
  (* the per-curve latency histogram fed by the same run *)
  match Obs.Metrics.hist_stats "curve.generate_s" with
  | Some s -> check int "one latency sample" 1 s.count
  | None -> Alcotest.fail "curve.generate_s histogram missing"

let () =
  Alcotest.run "observability"
    [ ( "trace",
        [ Alcotest.test_case "span nesting and ordering" `Quick
            test_span_nesting;
          Alcotest.test_case "span survives exceptions" `Quick
            test_span_exception;
          Alcotest.test_case "disabled tracing is free" `Quick
            test_span_disabled;
          Alcotest.test_case "spans merge across Parallel domains" `Quick
            test_spans_across_domains;
          Alcotest.test_case "chrome JSON round-trips" `Quick
            test_chrome_json_round_trip ] );
      ( "histogram",
        [ Alcotest.test_case "percentiles of a known distribution" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "constant / empty / non-finite" `Quick
            test_histogram_constant_and_empty;
          Alcotest.test_case "json export" `Quick test_histogram_json ] );
      ( "log",
        [ Alcotest.test_case "level filtering" `Quick test_log_level_filtering;
          Alcotest.test_case "level_of_string" `Quick test_log_level_of_string;
          Alcotest.test_case "jsonl sink" `Quick test_log_jsonl_sink ] );
      ( "telemetry",
        [ Alcotest.test_case "to_json always valid" `Quick
            test_telemetry_json_valid ] );
      ( "pipeline",
        [ Alcotest.test_case "solver span tree end-to-end" `Quick
            test_pipeline_span_tree ] ) ]

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

let test_uunifast_sums_to_target () =
  let prng = Util.Prng.create 7 in
  for n = 1 to 8 do
    let total = 0.1 +. Util.Prng.float prng 2.0 in
    let us = Check.Gen.uunifast prng ~n ~total in
    check int "n shares" n (List.length us);
    check bool "all positive" true (List.for_all (fun u -> u > 0.) us);
    check (Alcotest.float 1e-6) "sums to total" total
      (List.fold_left ( +. ) 0. us)
  done

let test_generated_instances_valid () =
  let prng = Util.Prng.create 3 in
  for _ = 1 to 200 do
    let inst = Check.Gen.instance (Util.Prng.split prng) in
    check bool "valid" true (Batch.Instance.valid inst);
    (* materialisation never raises *)
    ignore (Batch.Instance.tasks inst);
    ignore (Batch.Instance.dfg inst)
  done

let test_generation_deterministic () =
  let a = Check.Gen.instance (Util.Prng.create 11) in
  let b = Check.Gen.instance (Util.Prng.create 11) in
  let c = Check.Gen.instance (Util.Prng.create 12) in
  check bool "same seed, same instance" true (Batch.Instance.equal a b);
  check bool "different seed, different instance" false
    (Batch.Instance.equal a c)

(* ------------------------------------------------------------------ *)
(* Oracles                                                            *)
(* ------------------------------------------------------------------ *)

let curve base pts = Isa.Config.of_points ~base_cycles:base pts
let task name period base pts = Rt.Task.make ~name ~period (curve base pts)

let fig32_tasks () =
  [ task "T1" 6 2 [ { Isa.Config.area = 7; cycles = 1 } ];
    task "T2" 8 3 [ { Isa.Config.area = 6; cycles = 2 } ];
    task "T3" 12 6 [ { Isa.Config.area = 4; cycles = 5 } ] ]

let test_oracle_matches_fig32 () =
  let best = Check.Oracle.edf_best ~budget:10 (fig32_tasks ()) in
  check (Alcotest.float 1e-9) "oracle optimum U" 1.0
    best.Core.Selection.utilization;
  check int "oracle optimum area" 10 best.Core.Selection.area

let test_oracle_rta_agrees_with_exact_test () =
  let prng = Util.Prng.create 23 in
  for _ = 1 to 300 do
    let n = Util.Prng.in_range prng 1 5 in
    let pairs =
      List.init n (fun _ ->
          let period = Util.Prng.in_range prng 2 40 in
          (Util.Prng.in_range prng 1 period, period))
    in
    check bool "RTA = Bini–Buttazzo"
      (Rt.Sched.rms_schedulable pairs)
      (Check.Oracle.response_time_schedulable pairs)
  done

(* Satellite: heuristic-vs-optimal ordering of Figure 3.2, each
   heuristic compared against the brute-force oracle rather than the
   DP under test. *)
let test_fig32_heuristic_ordering_vs_oracle () =
  let tasks = fig32_tasks () in
  let oracle = Check.Oracle.edf_best ~budget:10 tasks in
  check (Alcotest.float 1e-9) "oracle schedules at U = 1" 1.0
    oracle.Core.Selection.utilization;
  let u strategy =
    (Core.Heuristics.run strategy ~budget:10 tasks).Core.Selection.utilization
  in
  (* published ordering: optimal (24/24) < serve-first heuristics
     (25/24) < equal division (29/24) *)
  check (Alcotest.float 1e-9) "equal division" (29. /. 24.)
    (u Core.Heuristics.Equal_division);
  List.iter
    (fun strategy ->
      check (Alcotest.float 1e-9)
        (Core.Heuristics.name strategy)
        (25. /. 24.) (u strategy))
    [ Core.Heuristics.Smallest_deadline_first;
      Core.Heuristics.Highest_reduction_first;
      Core.Heuristics.Best_ratio_first ];
  List.iter
    (fun strategy ->
      check bool
        (Core.Heuristics.name strategy ^ " never beats the oracle")
        true
        (u strategy >= oracle.Core.Selection.utilization -. 1e-9))
    Core.Heuristics.all

let prop_heuristics_never_beat_oracle =
  QCheck.Test.make ~name:"heuristics never beat the brute-force oracle"
    ~count:60
    QCheck.(pair Test_helpers.arb_rt_taskset (int_range 0 80))
    (fun (tasks, budget) ->
      let oracle = Check.Oracle.edf_best ~budget tasks in
      List.for_all
        (fun strategy ->
          let h = Core.Heuristics.run strategy ~budget tasks in
          h.Core.Selection.utilization
          >= oracle.Core.Selection.utilization -. 1e-9)
        Core.Heuristics.all)

(* ------------------------------------------------------------------ *)
(* Shrinker                                                           *)
(* ------------------------------------------------------------------ *)

let test_shrinker_minimises () =
  (* "budget at least 12" is a monotone predicate, so greedy shrinking
     must land exactly on the boundary with everything else stripped. *)
  let inst = Check.Gen.instance (Util.Prng.create 5) in
  let inst = { inst with Batch.Instance.budget = 57 } in
  let shrunk, steps =
    Check.Shrink.shrink
      ~still_fails:(fun i -> i.Batch.Instance.budget >= 12)
      inst
  in
  check bool "made progress" true (steps > 0);
  check int "boundary found" 12 shrunk.Batch.Instance.budget;
  check int "tasks stripped" 0 (List.length shrunk.Batch.Instance.tasks);
  check int "dfg stripped" 0
    (List.length shrunk.Batch.Instance.dfg.Batch.Instance.kinds)

let test_shrinker_keeps_validity () =
  let prng = Util.Prng.create 9 in
  for _ = 1 to 50 do
    let inst = Check.Gen.instance (Util.Prng.split prng) in
    List.iter
      (fun c -> check bool "candidate valid" true (Batch.Instance.valid c))
      (Check.Shrink.candidates inst)
  done

(* ------------------------------------------------------------------ *)
(* Repro round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let tmp_file name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "isecustom-test-%d-%s" (Unix.getpid ()) name)

let test_repro_roundtrip () =
  let prng = Util.Prng.create 13 in
  for i = 1 to 50 do
    let inst = Check.Gen.instance (Util.Prng.split prng) in
    let file = tmp_file (Printf.sprintf "roundtrip-%d.json" i) in
    Check.Repro.write ~file ~prop:"edf_dp_matches_oracle" ~seed:i inst;
    (match Check.Repro.read file with
     | Ok r ->
       check bool "instance round-trips" true
         (Batch.Instance.equal r.Check.Repro.instance inst);
       check Alcotest.string "prop preserved" "edf_dp_matches_oracle"
         r.Check.Repro.prop;
       check int "seed preserved" i r.Check.Repro.seed
     | Error msg -> Alcotest.fail msg);
    Sys.remove file
  done

let test_repro_rejects_garbage () =
  let file = tmp_file "garbage.json" in
  let oc = open_out file in
  output_string oc "{\"version\": 1, \"prop\": \"x\", truncated";
  close_out oc;
  (match Check.Repro.read file with
   | Ok _ -> Alcotest.fail "garbage parsed"
   | Error _ -> ());
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* Runner                                                             *)
(* ------------------------------------------------------------------ *)

let quiet_config ~seed ~budget =
  { Check.Runner.seed;
    budget;
    suites = [];
    repro_dir = Filename.get_temp_dir_name () }

let test_all_suites_green () =
  let summary = Check.Runner.run (quiet_config ~seed:42 ~budget:40) in
  check bool "no failures" true (Check.Runner.ok summary);
  check int "every property ran" (40 * List.length Check.Prop.all)
    summary.Check.Runner.cases

let test_suite_filter () =
  let config = { (quiet_config ~seed:42 ~budget:5) with suites = [ "engine" ] } in
  let summary = Check.Runner.run config in
  check bool "green" true (Check.Runner.ok summary);
  check int "only the engine properties ran" (5 * 2) summary.Check.Runner.cases

(* The acceptance scenario: an off-by-one in the DP budget must be
   caught, shrunk and persisted as a repro file that replays. *)
let test_injected_bug_caught_and_shrunk () =
  match
    Check.Runner.selftest ~seed:42
      ~repro_dir:(Filename.get_temp_dir_name ()) ()
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* `check selftest --repro-dir DIR` on a DIR that does not exist yet:
   the repro is written there, and replaying it through the CLI's
   property set reproduces the failure ([Ok false], exit 1). *)
let test_selftest_repro_replays () =
  let root = tmp_file "selftest-missing" in
  let dir = Filename.concat root "nested" in
  Fun.protect ~finally:(fun () -> Test_helpers.rm_rf root) @@ fun () ->
  (match Check.Runner.selftest ~seed:42 ~repro_dir:dir () with
   | Ok _ -> ()
   | Error msg -> Alcotest.fail msg);
  let file = Filename.concat dir "repro-selftest_edf_off_by_one-42.json" in
  check bool "repro written in the created directory" true (Sys.file_exists file);
  match Check.Runner.replay ~props:(Check.Prop.all @ Check.Props.all) file with
  | Ok false -> ()
  | Ok true -> Alcotest.fail "self-test repro passes on replay"
  | Error msg -> Alcotest.fail msg

(* A plain run creates a missing repro directory as well. *)
let test_run_creates_repro_dir () =
  let dir = tmp_file "run-missing" in
  Fun.protect ~finally:(fun () -> Test_helpers.rm_rf dir) @@ fun () ->
  let always_fails =
    { Check.Prop.name = "always_fails"; suite = "test";
      run = (fun _ -> Check.Prop.Fail "deliberate") }
  in
  let summary =
    Check.Runner.run ~props:[ always_fails ]
      { (quiet_config ~seed:1 ~budget:1) with repro_dir = dir }
  in
  match summary.Check.Runner.failures with
  | [ { Check.Runner.repro_file = Some file; _ } ] ->
    check bool "repro file exists" true (Sys.file_exists file)
  | _ -> Alcotest.fail "expected one failure with a written repro file"

(* A property that raises fails with the exception's text and a
   written repro (the shrinker keeps shrinking while it raises), and the
   next property still runs. *)
let test_raising_property_fails () =
  let dir = tmp_file "run-raises" in
  Fun.protect ~finally:(fun () -> Test_helpers.rm_rf dir) @@ fun () ->
  let raises =
    { Check.Prop.name = "raises"; suite = "test";
      run = (fun _ -> failwith "deliberate") }
  and after =
    { Check.Prop.name = "after"; suite = "test"; run = (fun _ -> Check.Prop.Pass) }
  in
  let summary =
    Check.Runner.run ~props:[ raises; after ]
      { (quiet_config ~seed:1 ~budget:3) with repro_dir = dir }
  in
  check int "every case of both properties ran" 4 summary.Check.Runner.cases;
  check int "the next property passed" 3 summary.Check.Runner.passed;
  match summary.Check.Runner.failures with
  | [ { Check.Runner.prop = "raises"; message; repro_file = Some file; _ } ] ->
    check Alcotest.string "message" "raised Failure(\"deliberate\")" message;
    check bool "repro file exists" true (Sys.file_exists file)
  | _ -> Alcotest.fail "expected one failure of [raises] with a written repro file"

let test_replay_unknown_property () =
  let file = tmp_file "unknown-prop.json" in
  let inst = Check.Gen.instance (Util.Prng.create 1) in
  Check.Repro.write ~file ~prop:"no_such_property" ~seed:1 inst;
  (match Check.Runner.replay file with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown property accepted");
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* Cache corruption handling (satellite)                              *)
(* ------------------------------------------------------------------ *)

let test_cache_corruption_logged_and_recomputed () =
  let tmp = tmp_file "cache-dir" in
  let saved_dir = Engine.Cache.dir () in
  let saved_enabled = Engine.Cache.enabled () in
  let buf = Buffer.create 256 in
  let buf_fmt = Format.formatter_of_buffer buf in
  let saved_level = Engine.Log.level () in
  Engine.Log.set_formatter buf_fmt;
  Engine.Log.set_level Engine.Log.Warn;
  Fun.protect
    ~finally:(fun () ->
      ignore (Engine.Cache.clear ());
      (try Unix.rmdir tmp with Unix.Unix_error _ | Sys_error _ -> ());
      Engine.Cache.set_dir saved_dir;
      Engine.Cache.set_enabled saved_enabled;
      Engine.Log.set_level saved_level;
      Engine.Log.set_formatter Format.err_formatter)
    (fun () ->
      Engine.Cache.set_dir tmp;
      Engine.Cache.set_enabled true;
      Engine.Cache.store ~namespace:"t" ~key:"k" [ 1; 2; 3 ];
      let file = Engine.Cache.file_of ~namespace:"t" ~key:"k" in
      let oc = open_out_bin file in
      output_string oc "garbage";
      close_out oc;
      let before = int_of_float (Obs.Metrics.sum "cache.corrupt") in
      check bool "corrupt file reads as a miss" true
        (Engine.Cache.find ~namespace:"t" ~key:"k" () = (None : int list option));
      check bool "corruption counted" true
        (int_of_float (Obs.Metrics.sum "cache.corrupt") > before);
      Format.pp_print_flush buf_fmt ();
      let logged = Buffer.contents buf in
      let contains hay needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length hay
          && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      check bool "warning mentions recomputing" true
        (contains logged "recomputing");
      (* recompute-and-store repairs the entry *)
      Engine.Cache.store ~namespace:"t" ~key:"k" [ 1; 2; 3 ];
      check bool "repaired entry hits" true
        (Engine.Cache.find ~namespace:"t" ~key:"k" () = Some [ 1; 2; 3 ]))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "check"
    [ ( "generators",
        [ Alcotest.test_case "UUniFast sums to target" `Quick
            test_uunifast_sums_to_target;
          Alcotest.test_case "instances always valid" `Quick
            test_generated_instances_valid;
          Alcotest.test_case "generation deterministic" `Quick
            test_generation_deterministic ] );
      ( "oracles",
        [ Alcotest.test_case "oracle reproduces Fig 3.2" `Quick
            test_oracle_matches_fig32;
          Alcotest.test_case "RTA agrees with exact RMS test" `Quick
            test_oracle_rta_agrees_with_exact_test;
          Alcotest.test_case "Fig 3.2 heuristic ordering vs oracle" `Quick
            test_fig32_heuristic_ordering_vs_oracle;
          qt prop_heuristics_never_beat_oracle ] );
      ( "shrinker",
        [ Alcotest.test_case "greedy minimisation to the boundary" `Quick
            test_shrinker_minimises;
          Alcotest.test_case "candidates stay valid" `Quick
            test_shrinker_keeps_validity ] );
      ( "repro",
        [ Alcotest.test_case "JSON round-trip" `Quick test_repro_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_repro_rejects_garbage ] );
      ( "runner",
        [ Alcotest.test_case "all suites green" `Quick test_all_suites_green;
          Alcotest.test_case "suite filter" `Quick test_suite_filter;
          Alcotest.test_case "injected bug caught, shrunk, replayable" `Quick
            test_injected_bug_caught_and_shrunk;
          Alcotest.test_case "replay rejects unknown property" `Quick
            test_replay_unknown_property;
          Alcotest.test_case "self-test repro replays from a new dir" `Quick
            test_selftest_repro_replays;
          Alcotest.test_case "raising property fails with a repro" `Quick
            test_raising_property_fails;
          Alcotest.test_case "run creates a missing repro dir" `Quick
            test_run_creates_repro_dir ] );
      ( "cache",
        [ Alcotest.test_case "corruption logged and recomputed" `Quick
            test_cache_corruption_logged_and_recomputed ] ) ]

(* Resilience tests: anytime degradation under resource guards (fuel
   and wall-clock), fault injection through the cache and the parallel
   runner, and crash isolation in experiment sweeps. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let counter name = int_of_float (Obs.Metrics.sum name)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec at i = i + m <= n && (String.sub hay i m = needle || at (i + 1)) in
  at 0

let curve base pts = Isa.Config.of_points ~base_cycles:base pts
let task name period base pts = Rt.Task.make ~name ~period (curve base pts)

let pairs_of (sel : Core.Selection.t) =
  List.map
    (fun ((t : Rt.Task.t), (p : Isa.Config.point)) -> (p.cycles, t.period))
    sel.assignment

(* Six lightly-loaded tasks: the software assignment already schedules,
   so a depth-first dive reaches an incumbent within a handful of
   nodes. *)
let small_tasks () =
  List.init 6 (fun i ->
      task
        (Printf.sprintf "t%d" i)
        (100 + (7 * i))
        10
        [ { Isa.Config.area = 1; cycles = 8 };
          { Isa.Config.area = 2; cycles = 6 };
          { Isa.Config.area = 3; cycles = 4 } ])

(* Twelve tasks x four configurations, everything schedulable and
   in-budget, so with bound pruning disabled the branch-and-bound faces
   the full 4^12-leaf tree — pathological on purpose. *)
let pathological_tasks () =
  List.init 12 (fun i ->
      task
        (Printf.sprintf "p%d" i)
        (1000 + (13 * i))
        5
        [ { Isa.Config.area = 1; cycles = 4 };
          { Isa.Config.area = 2; cycles = 3 };
          { Isa.Config.area = 3; cycles = 2 } ])

(* ------------------------------ guard ------------------------------ *)

let test_tight_fuel_partial_incumbent () =
  let tasks = small_tasks () in
  let budget = 100 in
  (* bound pruning off: the dive still reaches a leaf (an incumbent)
     within the first ~6 nodes, but the 5461-node tree dwarfs the fuel *)
  let got, stats =
    Core.Rms_select.run_instrumented
      ~guard:(Engine.Guard.create ~fuel:10 ())
      ~use_bound:false ~budget tasks
  in
  (match stats.Core.Rms_select.status with
   | Engine.Guard.Partial (Engine.Guard.Fuel 10) -> ()
   | s -> Alcotest.failf "expected fuel exhaustion, got %s"
            (Engine.Guard.string_of_status s));
  match got with
  | None -> Alcotest.fail "no incumbent despite a reachable leaf"
  | Some inc ->
    check bool "incumbent within budget" true (inc.Core.Selection.area <= budget);
    check bool "incumbent RMS-schedulable" true
      (Check.Oracle.response_time_schedulable (pairs_of inc));
    (* re-run unbounded: the true optimum can only be at least as good *)
    (match Core.Rms_select.run ~budget tasks with
     | None -> Alcotest.fail "unbounded run found no optimum"
     | Some opt ->
       check bool "incumbent never beats the optimum" true
         (opt.Core.Selection.utilization
          <= inc.Core.Selection.utilization +. 1e-9))

let test_fuel_partial_is_reproducible () =
  let tasks = pathological_tasks () in
  let budget = 1000 in
  let run () =
    Core.Rms_select.run_instrumented
      ~guard:(Engine.Guard.create ~fuel:50_000 ())
      ~use_bound:false ~budget tasks
  in
  let sel1, stats1 = run () in
  let sel2, stats2 = run () in
  check bool "same incumbent" true (sel1 = sel2);
  check int "same nodes explored" stats1.Core.Rms_select.explored
    stats2.Core.Rms_select.explored;
  check bool "both partial" true
    (stats1.Core.Rms_select.status <> Engine.Guard.Exact
     && stats1.Core.Rms_select.status = stats2.Core.Rms_select.status)

let test_deadline_stops_pathological_search () =
  let tasks = pathological_tasks () in
  let exhausted_before = counter "guard.exhausted" in
  let t0 = Unix.gettimeofday () in
  let got, stats =
    Core.Rms_select.run_instrumented
      ~guard:(Engine.Guard.create ~deadline_s:0.25 ())
      ~use_bound:false ~budget:1000 tasks
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check bool "stopped promptly (well under the unguarded runtime)" true
    (elapsed < 20.);
  (match stats.Core.Rms_select.status with
   | Engine.Guard.Partial (Engine.Guard.Deadline _) -> ()
   | s -> Alcotest.failf "expected deadline exhaustion, got %s"
            (Engine.Guard.string_of_status s));
  check bool "guard.exhausted counted" true
    (counter "guard.exhausted" > exhausted_before);
  match got with
  | None -> Alcotest.fail "no incumbent after 0.25s on a feasible instance"
  | Some inc ->
    check bool "incumbent schedulable" true
      (Check.Oracle.response_time_schedulable (pairs_of inc))

let test_guarded_pareto_front_is_achievable () =
  let entities =
    List.init 5 (fun _ ->
        [| { Pareto.Mo_select.delta = 1.; cost = 1 };
           { Pareto.Mo_select.delta = 2.; cost = 3 } |])
  in
  let base = 20. in
  (* the DP ticks (1 + cells) fuel per entity row; enough for two rows *)
  let cells = 5 * 3 in
  let guard = Engine.Guard.create ~fuel:(2 * (1 + cells)) () in
  let partial, status =
    Pareto.Mo_select.exact_front_guarded ~guard ~base entities
  in
  (match status with
   | Engine.Guard.Partial (Engine.Guard.Fuel _) -> ()
   | s -> Alcotest.failf "expected fuel exhaustion, got %s"
            (Engine.Guard.string_of_status s));
  check bool "partial front is nonempty" true (partial <> []);
  let exact = Pareto.Mo_select.exact_front ~base entities in
  (* every partial point is achievable, so some exact point dominates it *)
  List.iter
    (fun (p : Util.Pareto_front.point) ->
      check bool
        (Printf.sprintf "point (%d, %.1f) dominated by the exact front"
           p.cost p.value)
        true
        (List.exists
           (fun (q : Util.Pareto_front.point) ->
             q.cost <= p.cost && q.value <= p.value +. 1e-9)
           exact))
    partial

(* The golden g08 Pareto request with eps = 1e-6: the FPTAS grid then
   has millions of coordinates and a ten-million-cell DP at each, which
   used to run unguarded for well over 15 s.  Under fuel it must stop
   between coordinates at once and say so. *)
let test_tiny_eps_approx_is_partial () =
  let line =
    {|{"id": "g08", "op": "pareto_approx", "instance": {"budget": 10, "eps": 0.000001, "tasks": [{"period": 100, "base": 50, "points": [{"area": 5, "cycles": 30}, {"area": 10, "cycles": 20}]}, {"period": 80, "base": 40, "points": [{"area": 4, "cycles": 25}]}], "dfg": {"kinds": [], "edges": [], "live_outs": []}}}|}
  in
  let req =
    match Batch.Protocol.parse_request line with
    | Ok r -> r
    | Error msg -> Alcotest.failf "request does not parse: %s" msg
  in
  let spec = { Engine.Guard.deadline_s = None; fuel = Some 100_000 } in
  let t0 = Unix.gettimeofday () in
  let answer = Batch.Service.answer ~spec req in
  let elapsed = Unix.gettimeofday () -. t0 in
  check bool "answered in under 1 s" true (elapsed < 1.);
  let module J = Util.Json in
  match J.parse answer with
  | J.Obj fields ->
    check bool "reported partial" true
      (List.assoc_opt "status" fields = Some (J.Str "partial"));
    check bool "software point kept" true
      (List.assoc_opt "points" fields
       = Some (J.Arr [ J.Obj [ ("cost", J.Num 0.); ("value", J.Num 90.) ] ]))
  | _ -> Alcotest.failf "answer is not an object: %s" answer

(* The golden g08 Pareto request with eps = 1e-300 makes the FPTAS
   table wider than any array.  It must come back as a per-line parse
   error, decided by the same predicate as the solver's own guard, and
   must not stop the golden edf line beside it from being answered. *)
let test_unsupported_eps_is_a_line_error () =
  let edf =
    {|{"id": "g00", "op": "edf", "instance": {"budget": 0, "eps": 0.5, "tasks": [{"period": 100, "base": 50, "points": [{"area": 5, "cycles": 30}, {"area": 10, "cycles": 20}]}, {"period": 80, "base": 40, "points": [{"area": 4, "cycles": 25}]}], "dfg": {"kinds": [], "edges": [], "live_outs": []}}}|}
  and approx =
    {|{"id": "g08", "op": "pareto_approx", "instance": {"budget": 10, "eps": 1e-300, "tasks": [{"period": 100, "base": 50, "points": [{"area": 5, "cycles": 30}, {"area": 10, "cycles": 20}]}, {"period": 80, "base": 40, "points": [{"area": 4, "cycles": 25}]}], "dfg": {"kinds": [], "edges": [], "live_outs": []}}}|}
  in
  let parsed = List.map Batch.Protocol.parse_request [ edf; approx ] in
  let oks = List.filter_map Result.to_option parsed in
  check Alcotest.int "one line parses" 1 (List.length oks);
  (match List.nth parsed 1 with
   | Error msg ->
     check bool "error names eps" true (String.starts_with ~prefix:"eps" msg)
   | Ok _ -> Alcotest.fail "eps = 1e-300 accepted");
  let entities =
    Batch.Protocol.entities_of (Result.get_ok (List.hd parsed)).Batch.Protocol.instance
  in
  check bool "the solver refuses the same eps" true
    (match Pareto.Mo_select.approx_front ~eps:1e-300 ~base:90. entities with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check bool "predicate accepts the golden eps" true
    (Pareto.Mo_select.approx_eps_supported ~eps:0.3 entities);
  let lines, _ = Batch.Service.run oks in
  check (Alcotest.list Alcotest.string) "the edf line is answered"
    (List.map Batch.Service.respond oks) lines

(* A request line carrying a raw (unescaped) tab inside a string is not
   JSON: the batch answers it with a per-line error and still answers
   every other line. *)
let test_raw_control_char_is_a_line_error () =
  let line id =
    Printf.sprintf
      {|{"id": "%s", "op": "edf", "instance": {"budget": 8, "eps": 0.5, "tasks": [{"period": 100, "base": 50, "points": [{"area": 5, "cycles": 30}, {"area": 10, "cycles": 20}]}, {"period": 80, "base": 40, "points": [{"area": 4, "cycles": 25}]}], "dfg": {"kinds": [], "edges": [], "live_outs": []}}}|}
      id
  in
  let parsed =
    List.map Batch.Protocol.parse_request [ line "a"; line "b\tc"; line "d" ]
  in
  let oks = List.filter_map Result.to_option parsed in
  check Alcotest.int "the other lines parse" 2 (List.length oks);
  (match List.nth parsed 1 with
   | Error msg ->
     check bool "error names the control character" true
       (contains msg "control character")
   | Ok _ -> Alcotest.fail "raw tab inside a string accepted");
  let lines, _ = Batch.Service.run oks in
  check (Alcotest.list Alcotest.string) "the other lines are answered"
    (List.map Batch.Service.respond oks) lines

let test_guarded_enumeration_is_prefix () =
  match Kernels.find_opt "adpcm_enc" with
  | None -> Alcotest.fail "adpcm_enc kernel missing"
  | Some cfg ->
    let blocks = Ir.Cfg.blocks cfg in
    let big =
      List.fold_left
        (fun acc (b : Ir.Cfg.block) ->
          if Ir.Dfg.node_count b.Ir.Cfg.body > Ir.Dfg.node_count acc.Ir.Cfg.body
          then b
          else acc)
        (List.hd blocks) blocks
    in
    let constraints = Isa.Hw_model.default_constraints in
    let all = Ise.Enumerate.connected ~constraints big.Ir.Cfg.body in
    let some =
      Ise.Enumerate.connected
        ~guard:(Engine.Guard.create ~fuel:3 ())
        ~constraints big.Ir.Cfg.body
    in
    check bool "guarded enumeration finds fewer candidates" true
      (List.length some < List.length all);
    check bool "guarded candidates are a subset" true
      (List.for_all (fun c -> List.mem c all) some)

(* ------------------------------ fault ------------------------------ *)

let with_fault_spec spec_string f =
  (match Engine.Fault.parse spec_string with
   | Ok spec -> Engine.Fault.configure spec
   | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec_string msg);
  Fun.protect ~finally:Engine.Fault.disable f

let with_scratch_cache f =
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "isecustom-test-resilience-%d" (Unix.getpid ()))
  in
  let saved_dir = Engine.Cache.dir () in
  let saved_enabled = Engine.Cache.enabled () in
  let saved_level = Engine.Log.level () in
  Engine.Log.set_level Engine.Log.Error;
  Fun.protect
    ~finally:(fun () ->
      Engine.Log.set_level saved_level;
      ignore (Engine.Cache.clear ());
      (try Unix.rmdir tmp with Unix.Unix_error _ | Sys_error _ -> ());
      Engine.Cache.set_dir saved_dir;
      Engine.Cache.set_enabled saved_enabled)
    (fun () ->
      Engine.Cache.set_dir tmp;
      Engine.Cache.set_enabled true;
      f ())

let test_injected_truncation_reads_as_corrupt () =
  with_scratch_cache @@ fun () ->
  let value = [ "torn"; "write" ] in
  with_fault_spec "seed=5,cache.truncate=1x1" (fun () ->
      Engine.Cache.store ~namespace:"resilience" ~key:"t" value;
      check int "truncation fired" 1 (Engine.Fault.fired "cache.truncate");
      let corrupt_before = counter "cache.corrupt" in
      check bool "torn entry reads as a miss" true
        (Engine.Cache.find ~namespace:"resilience" ~key:"t" () = None);
      check bool "torn entry counted as corruption" true
        (counter "cache.corrupt" > corrupt_before);
      (* recompute-and-store repairs the entry (the fire cap is spent) *)
      Engine.Cache.store ~namespace:"resilience" ~key:"t" value;
      check bool "repaired entry reads back" true
        (Engine.Cache.find ~namespace:"resilience" ~key:"t" () = Some value))

let test_injected_write_failure_degrades () =
  with_scratch_cache @@ fun () ->
  with_fault_spec "seed=6,cache.write=1x1" (fun () ->
      let failed_before = counter "cache.write_failed" in
      (* must not raise: the cache degrades to in-memory-only *)
      Engine.Cache.store ~namespace:"resilience" ~key:"w" [ 1; 2 ];
      check bool "write failure counted" true
        (counter "cache.write_failed" > failed_before);
      check bool "no tmp file leaked" true
        (Sys.readdir (Engine.Cache.dir ())
         |> Array.for_all (fun f ->
                not (String.length f > 4 && String.sub f 0 4 = ".tmp")
                && not
                     (Filename.check_suffix f
                        (Printf.sprintf ".tmp.%d" (Unix.getpid ()))))))

let test_map_result_retries_transient_crash () =
  with_fault_spec "seed=9,parallel.worker=1x1" (fun () ->
      let recovered_before = counter "parallel.recovered" in
      let outcomes =
        Engine.Parallel.Pool.with_pool ~jobs:1 @@ fun pool ->
        Engine.Parallel.Pool.map_result pool ~attempts:2
          (fun x -> x * 10)
          [ 1; 2; 3 ]
      in
      check bool "all items recovered" true
        (outcomes = [ Ok 10; Ok 20; Ok 30 ]);
      check int "crash fired once" 1 (Engine.Fault.fired "parallel.worker");
      check bool "recovery counted" true
        (counter "parallel.recovered" > recovered_before))

let test_map_result_isolates_permanent_failure () =
  let outcomes =
    Engine.Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
    Engine.Parallel.Pool.map_result pool ~attempts:2
      (fun x -> if x = 2 then failwith "permanently broken" else x * 10)
      [ 1; 2; 3 ]
  in
  match outcomes with
  | [ Ok 10; Error e; Ok 30 ] ->
    check int "both attempts spent" 2 e.Engine.Parallel.attempts;
    check bool "message preserved" true
      (String.length e.Engine.Parallel.message > 0)
  | _ -> Alcotest.fail "permanent failure not isolated to its item"

let test_fault_selftest_passes () =
  match Check.Runner.fault_selftest () with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "fault selftest: %s" msg

(* ---------------------------- coherence ---------------------------- *)

let test_clear_bumps_generation () =
  with_scratch_cache @@ fun () ->
  (* the scratch directory may carry a stamp from an earlier test in
     this binary — only monotonicity is contractual *)
  let g0 = Engine.Cache.generation () in
  Engine.Cache.store ~namespace:"resilience" ~key:"g" [ 1 ];
  ignore (Engine.Cache.clear () : int);
  let g1 = Engine.Cache.generation () in
  check bool "clear bumps the stamp" true (g1 > g0);
  let g2 = Engine.Cache.bump_generation () in
  check int "bump returns the stored stamp" g2 (Engine.Cache.generation ());
  check bool "stamp is monotone" true (g2 > g1)

let test_memo_revalidate_drops_on_bump () =
  with_scratch_cache @@ fun () ->
  let m = Engine.Memo.create ~shards:2 ~spill:true ~namespace:"coherence" () in
  Engine.Memo.store m ~key:"k" "v";
  check int "entry resident" 1 (Engine.Memo.size m);
  check bool "no bump, no drop" false (Engine.Memo.revalidate m);
  check int "still resident" 1 (Engine.Memo.size m);
  (* a sibling process invalidating the shared directory = a bump *)
  ignore (Engine.Cache.bump_generation () : int);
  check bool "bump detected" true (Engine.Memo.revalidate m);
  check int "resident tables dropped" 0 (Engine.Memo.size m);
  (* the spilled copy survives a bare bump; a lookup re-promotes it *)
  check bool "spilled entry re-promoted" true
    (Engine.Memo.find m ~key:"k" = Some "v");
  check bool "second probe is quiet" false (Engine.Memo.revalidate m);
  let no_spill =
    Engine.Memo.create ~shards:2 ~spill:false ~namespace:"coherence" ()
  in
  ignore (Engine.Cache.bump_generation () : int);
  check bool "no-spill memo has nothing shared to go stale" false
    (Engine.Memo.revalidate no_spill)

let test_sweep_reaps_dead_writers_only () =
  with_scratch_cache @@ fun () ->
  Engine.Cache.store ~namespace:"resilience" ~key:"s" [ 1 ];
  let dir = Engine.Cache.dir () in
  (* a writer pid with no live process behind it (forking one and
     reaping it would be cleaner, but fork is off-limits once domains
     exist) *)
  let rec find_dead p =
    if p <= 1 then Alcotest.fail "no free pid found below 99999"
    else
      match Unix.kill p 0 with
      | () -> find_dead (p - 1)
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> p
      | exception Unix.Unix_error _ -> find_dead (p - 1)
  in
  let dead_pid = find_dead 99999 in
  let touch f =
    let oc = open_out f in
    output_string oc "torn";
    close_out oc
  in
  let dead = Filename.concat dir (Printf.sprintf "orphan.tmp.%d" dead_pid) in
  let live =
    Filename.concat dir (Printf.sprintf "scratch.tmp.%d" (Unix.getpid ()))
  in
  touch dead;
  touch live;
  let old = Unix.gettimeofday () -. 3600. in
  Unix.utimes dead old old;
  Unix.utimes live old old;
  check int "one orphan swept" 1 (Engine.Cache.sweep_stale_tmp ());
  check bool "dead writer's tmp gone" false (Sys.file_exists dead);
  check bool "live writer's tmp preserved" true (Sys.file_exists live);
  (* a fresh orphan survives the default age gate until it is old *)
  touch dead;
  check int "young orphan not swept" 0 (Engine.Cache.sweep_stale_tmp ());
  check int "age zero sweeps it" 1
    (Engine.Cache.sweep_stale_tmp ~older_than_s:0. ());
  Sys.remove live

(* ------------------------------ sweep ------------------------------ *)

let test_sweep_isolates_failing_experiment () =
  let ok id =
    { Experiments.Registry.id;
      title = id;
      run =
        (fun () ->
          Experiments.Report.collect (fun t ->
              Experiments.Report.row t [ id ])) }
  in
  let boom =
    { Experiments.Registry.id = "boom";
      title = "always fails";
      run = (fun () -> failwith "experiment crashed") }
  in
  let saved_level = Engine.Log.level () in
  Engine.Log.set_level Engine.Log.Error;
  Fun.protect ~finally:(fun () -> Engine.Log.set_level saved_level)
  @@ fun () ->
  match Experiments.Registry.run_sweep [ ok "a"; boom; ok "b" ] with
  | [ (_, Ok ra); (_, Error msg); (_, Ok rb) ] ->
    check bool "first experiment ran" true
      (ra.Experiments.Report.rows = [ [ "a" ] ]);
    check bool "last experiment still ran" true
      (rb.Experiments.Report.rows = [ [ "b" ] ]);
    check bool "failure message preserved" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "sweep did not isolate the failing experiment"

let () =
  Alcotest.run "resilience"
    [ ( "guard",
        [ Alcotest.test_case "tight fuel: sound partial incumbent" `Quick
            test_tight_fuel_partial_incumbent;
          Alcotest.test_case "fuel partials are reproducible" `Quick
            test_fuel_partial_is_reproducible;
          Alcotest.test_case "deadline stops a pathological search" `Quick
            test_deadline_stops_pathological_search;
          Alcotest.test_case "guarded Pareto front is achievable" `Quick
            test_guarded_pareto_front_is_achievable;
          Alcotest.test_case "tiny-eps Pareto approx stops under fuel" `Quick
            test_tiny_eps_approx_is_partial;
          Alcotest.test_case "unsupported eps is a per-line error" `Quick
            test_unsupported_eps_is_a_line_error;
          Alcotest.test_case "raw control character is a per-line error" `Quick
            test_raw_control_char_is_a_line_error;
          Alcotest.test_case "guarded enumeration is a prefix" `Quick
            test_guarded_enumeration_is_prefix ] );
      ( "fault",
        [ Alcotest.test_case "injected truncation reads as corrupt" `Quick
            test_injected_truncation_reads_as_corrupt;
          Alcotest.test_case "injected write failure degrades" `Quick
            test_injected_write_failure_degrades;
          Alcotest.test_case "map_result retries a transient crash" `Quick
            test_map_result_retries_transient_crash;
          Alcotest.test_case "map_result isolates a permanent failure" `Quick
            test_map_result_isolates_permanent_failure;
          Alcotest.test_case "fault selftest passes" `Quick
            test_fault_selftest_passes ] );
      ( "coherence",
        [ Alcotest.test_case "clear bumps the generation stamp" `Quick
            test_clear_bumps_generation;
          Alcotest.test_case "memo revalidates on a sibling bump" `Quick
            test_memo_revalidate_drops_on_bump;
          Alcotest.test_case "sweep reaps dead writers only" `Quick
            test_sweep_reaps_dead_writers_only ] );
      ( "sweep",
        [ Alcotest.test_case "one failing experiment does not abort" `Quick
            test_sweep_isolates_failing_experiment ] ) ]

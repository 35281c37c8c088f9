let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let curve base pts = Isa.Config.of_points ~base_cycles:base pts
let task name period base pts = Rt.Task.make ~name ~period (curve base pts)

(* ------------------------------------------------------------------ *)
(* The motivating example of Figure 3.2 (exact published numbers)      *)
(* ------------------------------------------------------------------ *)

(* T1: P=6, C=2, config (7,1); T2: P=8, C=3, config (6,2);
   T3: P=12, C=6, config (4,5); budget 10. *)
let fig32_tasks () =
  [ task "T1" 6 2 [ { Isa.Config.area = 7; cycles = 1 } ];
    task "T2" 8 3 [ { Isa.Config.area = 6; cycles = 2 } ];
    task "T3" 12 6 [ { Isa.Config.area = 4; cycles = 5 } ] ]

let test_fig32_software_unschedulable () =
  let sel = Core.Selection.software (fig32_tasks ()) in
  (* U = 2/6 + 3/8 + 6/12 = 29/24 *)
  check (Alcotest.float 1e-9) "software U" (29. /. 24.) sel.Core.Selection.utilization;
  check bool "unschedulable" true (sel.Core.Selection.utilization > 1.)

let test_fig32_optimal () =
  let sel = Core.Edf_select.run ~budget:10 (fig32_tasks ()) in
  (* optimal: T2 and T3 customized, T1 software -> U = 24/24 = 1 *)
  check (Alcotest.float 1e-9) "optimal U" 1.0 sel.Core.Selection.utilization;
  check int "optimal area" 10 sel.Core.Selection.area;
  check bool "schedulable" true (sel.Core.Selection.utilization <= 1.)

let test_fig32_heuristics_fail () =
  (* Figure 3.2 a-d: each heuristic leaves U = 25/24 or 29/24 > 1. *)
  List.iter
    (fun strategy ->
      let sel = Core.Heuristics.run strategy ~budget:10 (fig32_tasks ()) in
      check bool
        (Core.Heuristics.name strategy ^ " fails to schedule")
        true
        (sel.Core.Selection.utilization > 1.))
    Core.Heuristics.all

let test_fig32_heuristic_values () =
  (* equal division: 10/3=3 fits nothing -> 29/24 *)
  let eq = Core.Heuristics.run Core.Heuristics.Equal_division ~budget:10 (fig32_tasks ()) in
  check (Alcotest.float 1e-9) "equal division U" (29. /. 24.) eq.Core.Selection.utilization;
  (* deadline/reduction/ratio orders all serve T1 first -> 25/24 *)
  List.iter
    (fun strategy ->
      let sel = Core.Heuristics.run strategy ~budget:10 (fig32_tasks ()) in
      check (Alcotest.float 1e-9)
        (Core.Heuristics.name strategy ^ " U")
        (25. /. 24.) sel.Core.Selection.utilization)
    [ Core.Heuristics.Smallest_deadline_first;
      Core.Heuristics.Highest_reduction_first;
      Core.Heuristics.Best_ratio_first ]

(* ------------------------------------------------------------------ *)
(* EDF selection                                                      *)
(* ------------------------------------------------------------------ *)

let test_edf_zero_budget_is_software () =
  let tasks = fig32_tasks () in
  let sel = Core.Edf_select.run ~budget:0 tasks in
  check int "no area used" 0 sel.Core.Selection.area;
  check (Alcotest.float 1e-9) "software utilization" (29. /. 24.)
    sel.Core.Selection.utilization

let prop_edf_matches_exhaustive =
  QCheck.Test.make ~name:"EDF DP equals exhaustive optimum" ~count:60
    QCheck.(pair (QCheck.make Test_helpers.gen_rt_taskset) (int_range 0 80))
    (fun (tasks, budget) ->
      let dp = Core.Edf_select.run ~budget tasks in
      let ex = Core.Edf_select.exhaustive ~budget tasks in
      Float.abs (dp.Core.Selection.utilization -. ex.Core.Selection.utilization) < 1e-9
      && dp.Core.Selection.area <= budget)

let prop_edf_monotone_in_budget =
  QCheck.Test.make ~name:"EDF utilization non-increasing in budget" ~count:60
    (QCheck.make Test_helpers.gen_rt_taskset)
    (fun tasks ->
      let us =
        List.map
          (fun budget -> (Core.Edf_select.run ~budget tasks).Core.Selection.utilization)
          [ 0; 10; 20; 40; 80; 160 ]
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
        | _ -> true
      in
      non_increasing us)

let prop_edf_beats_heuristics =
  QCheck.Test.make ~name:"EDF DP is never worse than any heuristic" ~count:60
    QCheck.(pair (QCheck.make Test_helpers.gen_rt_taskset) (int_range 0 100))
    (fun (tasks, budget) ->
      let opt = (Core.Edf_select.run ~budget tasks).Core.Selection.utilization in
      List.for_all
        (fun strategy ->
          let h = Core.Heuristics.run strategy ~budget tasks in
          opt <= h.Core.Selection.utilization +. 1e-9)
        Core.Heuristics.all)

(* ------------------------------------------------------------------ *)
(* RMS selection                                                      *)
(* ------------------------------------------------------------------ *)

let test_rms_simple () =
  (* harmonic set: schedulable in software, customization reduces U *)
  let tasks =
    [ task "a" 4 2 [ { Isa.Config.area = 5; cycles = 1 } ];
      task "b" 8 4 [ { Isa.Config.area = 5; cycles = 2 } ] ]
  in
  match Core.Rms_select.run ~budget:10 tasks with
  | Some sel ->
    check (Alcotest.float 1e-9) "U minimised" 0.5 sel.Core.Selection.utilization
  | None -> Alcotest.fail "expected a schedulable selection"

let test_rms_none_when_impossible () =
  let tasks =
    [ task "a" 2 2 []; task "b" 3 3 [] ]
  in
  check bool "no selection" true (Core.Rms_select.run ~budget:100 tasks = None)

let test_rms_needs_customization () =
  (* Software U > 1; with custom instructions it becomes harmonic-feasible. *)
  let tasks =
    [ task "a" 4 3 [ { Isa.Config.area = 4; cycles = 2 } ];
      task "b" 8 4 [ { Isa.Config.area = 4; cycles = 2 } ] ]
  in
  check bool "software infeasible" true
    (not (Rt.Sched.rms_schedulable [ (3, 4); (4, 8) ]));
  match Core.Rms_select.run ~budget:8 tasks with
  | Some sel ->
    check (Alcotest.float 1e-9) "customized U" 0.75 sel.Core.Selection.utilization
  | None -> Alcotest.fail "customization should make it schedulable"

let prop_rms_matches_exhaustive =
  QCheck.Test.make ~name:"RMS branch-and-bound equals exhaustive optimum"
    ~count:60
    QCheck.(pair (QCheck.make Test_helpers.gen_rt_taskset) (int_range 0 80))
    (fun (tasks, budget) ->
      (* distinct periods so priority order is unambiguous *)
      let periods = List.map (fun (t : Rt.Task.t) -> t.period) tasks in
      QCheck.assume
        (List.length periods = List.length (List.sort_uniq compare periods));
      match (Core.Rms_select.run ~budget tasks, Core.Rms_select.exhaustive ~budget tasks) with
      | None, None -> true
      | Some a, Some b ->
        Float.abs (a.Core.Selection.utilization -. b.Core.Selection.utilization) < 1e-9
      | Some _, None | None, Some _ -> false)

let prop_rms_solution_schedulable =
  QCheck.Test.make ~name:"RMS selections pass the exact test and simulate clean"
    ~count:60
    QCheck.(pair (QCheck.make Test_helpers.gen_rt_taskset) (int_range 0 80))
    (fun (tasks, budget) ->
      match Core.Rms_select.run ~budget tasks with
      | None -> true
      | Some sel ->
        let pairs =
          List.map
            (fun ((t : Rt.Task.t), (p : Isa.Config.point)) -> (p.cycles, t.period))
            sel.Core.Selection.assignment
        in
        Rt.Sched.rms_schedulable pairs
        && sel.Core.Selection.area <= budget)

let prop_rms_never_below_edf =
  QCheck.Test.make ~name:"optimal RMS utilization >= optimal EDF utilization"
    ~count:60
    QCheck.(pair (QCheck.make Test_helpers.gen_rt_taskset) (int_range 0 80))
    (fun (tasks, budget) ->
      match Core.Rms_select.run ~budget tasks with
      | None -> true
      | Some rms ->
        let edf = Core.Edf_select.run ~budget tasks in
        rms.Core.Selection.utilization >= edf.Core.Selection.utilization -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Selection helpers                                                  *)
(* ------------------------------------------------------------------ *)

let test_selection_feasible () =
  let t = task "a" 10 5 [ { Isa.Config.area = 4; cycles = 3 } ] in
  let good = Core.Selection.of_assignment [ (t, { Isa.Config.area = 4; cycles = 3 }) ] in
  check bool "within budget" true (Core.Selection.feasible ~budget:4 good);
  check bool "over budget" false (Core.Selection.feasible ~budget:3 good);
  (* a point not on the task's curve is rejected *)
  let bogus = Core.Selection.of_assignment [ (t, { Isa.Config.area = 2; cycles = 4 }) ] in
  check bool "foreign point" false (Core.Selection.feasible ~budget:100 bogus)

let test_edf_non_gcd_budget () =
  (* areas 6 and 4 (gcd 2) with budget 7: only the 6 or the 4 fits *)
  let tasks =
    [ task "a" 10 4 [ { Isa.Config.area = 6; cycles = 1 } ];
      task "b" 10 4 [ { Isa.Config.area = 4; cycles = 2 } ] ]
  in
  let sel = Core.Edf_select.run ~budget:7 tasks in
  let ex = Core.Edf_select.exhaustive ~budget:7 tasks in
  check (Alcotest.float 1e-9) "DP = exhaustive on non-multiple budget"
    ex.Core.Selection.utilization sel.Core.Selection.utilization;
  check bool "budget respected" true (sel.Core.Selection.area <= 7)

let test_rms_instrumented_consistent () =
  let tasks = fig32_tasks () in
  let with_pruning, s1 =
    Core.Rms_select.run_instrumented ~use_bound:true ~fastest_first:true
      ~budget:10 tasks
  in
  let without, s2 =
    Core.Rms_select.run_instrumented ~use_bound:false ~fastest_first:false
      ~budget:10 tasks
  in
  (match (with_pruning, without) with
   | Some a, Some b ->
     check (Alcotest.float 1e-9) "same optimum"
       a.Core.Selection.utilization b.Core.Selection.utilization
   | None, None -> ()
   | Some _, None | None, Some _ -> Alcotest.fail "pruning changed feasibility");
  check bool "pruning explores no more nodes" true
    (s1.Core.Rms_select.explored <= s2.Core.Rms_select.explored)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [ ( "fig3.2",
        [ Alcotest.test_case "software unschedulable" `Quick test_fig32_software_unschedulable;
          Alcotest.test_case "optimal schedules at budget 10" `Quick test_fig32_optimal;
          Alcotest.test_case "all heuristics fail" `Quick test_fig32_heuristics_fail;
          Alcotest.test_case "heuristic utilizations exact" `Quick test_fig32_heuristic_values ] );
      ( "edf",
        [ Alcotest.test_case "zero budget" `Quick test_edf_zero_budget_is_software;
          qt prop_edf_matches_exhaustive;
          qt prop_edf_monotone_in_budget;
          qt prop_edf_beats_heuristics ] );
      ( "rms",
        [ Alcotest.test_case "simple" `Quick test_rms_simple;
          Alcotest.test_case "none when impossible" `Quick test_rms_none_when_impossible;
          Alcotest.test_case "customization enables schedule" `Quick test_rms_needs_customization;
          qt prop_rms_matches_exhaustive;
          qt prop_rms_solution_schedulable;
          qt prop_rms_never_below_edf ] );
      ( "extras",
        [ Alcotest.test_case "selection feasibility" `Quick test_selection_feasible;
          Alcotest.test_case "EDF with non-gcd budget" `Quick test_edf_non_gcd_budget;
          Alcotest.test_case "instrumented B&B consistent" `Quick
            test_rms_instrumented_consistent ] ) ]

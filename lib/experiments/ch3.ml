(* Chapter 3 — the DATE 2007 paper's evaluation (§3.2). *)

let utilizations = [ 0.80; 1.00; 1.05; 1.08; 1.10 ]

(* Table 3.1: composition of the task sets. *)
let table_3_1 fmt =
  Report.banner fmt ~id:"Table 3.1" "composition of task sets";
  Report.row fmt [ Report.cell ~width:8 "Task set"; "Benchmarks" ];
  for i = 1 to 6 do
    Report.row fmt
      [ Report.cell ~width:8 (string_of_int i);
        String.concat ", " (Curves.taskset_ch3 i) ]
  done

(* Figure 3.1: cycles-vs-area staircase for the g721 decoding task. *)
let figure_3_1 fmt =
  Report.banner fmt ~id:"Figure 3.1" "performance vs hardware area (g721 decode)";
  let curve = Curves.curve "g721decode" in
  Report.row fmt
    [ Report.cellr ~width:16 "area (adders)"; Report.cellr ~width:16 "cycles" ];
  Array.iter
    (fun (p : Isa.Config.point) ->
      Report.row fmt
        [ Report.cellr ~width:16 (Printf.sprintf "%.1f" (Isa.Hw_model.adders_of_units p.area));
          Report.cellr ~width:16 (string_of_int p.cycles) ])
    (Isa.Config.points curve)

(* Figure 3.2: the motivating example — four heuristics fail where the
   optimal selection schedules the set. *)
let figure_3_2 fmt =
  Report.banner fmt ~id:"Figure 3.2" "heuristics vs optimal on the motivating example";
  let curve base pts = Isa.Config.of_points ~base_cycles:base pts in
  let tasks =
    [ Rt.Task.make ~name:"T1" ~period:6 (curve 2 [ { Isa.Config.area = 7; cycles = 1 } ]);
      Rt.Task.make ~name:"T2" ~period:8 (curve 3 [ { Isa.Config.area = 6; cycles = 2 } ]);
      Rt.Task.make ~name:"T3" ~period:12 (curve 6 [ { Isa.Config.area = 4; cycles = 5 } ]) ]
  in
  let budget = 10 in
  let show name (sel : Core.Selection.t) =
    Report.row fmt
      [ Report.cell ~width:40 name;
        Report.cellr ~width:10 (Printf.sprintf "%.4f" sel.utilization);
        Report.cell ~width:14
          (if sel.utilization <= 1. then "schedulable" else "NOT schedulable") ]
  in
  show "software only" (Core.Selection.software tasks);
  List.iter
    (fun strategy ->
      show (Core.Heuristics.name strategy)
        (Core.Heuristics.run strategy ~budget tasks))
    Core.Heuristics.all;
  show "optimal (Algorithm 1)" (Core.Edf_select.run ~budget tasks)

(* The budgets 0, 10, ..., 100 % of MaxArea that Figures 3.3 and 3.4 plot. *)
let area_steps max_area = List.init 11 (fun step -> max_area * step / 10)

(* Figure 3.3: utilization vs area for each task set, both policies. *)
let figure_3_3 fmt =
  Report.banner fmt ~id:"Figure 3.3" "utilization vs area, EDF and RMS";
  let reductions_at = Hashtbl.create 8 (* fraction of MaxArea -> reductions *) in
  let record frac reduction =
    Hashtbl.replace reductions_at frac
      (reduction :: Option.value ~default:[] (Hashtbl.find_opt reductions_at frac))
  in
  List.iter
    (fun set_index ->
      let names = Curves.taskset_ch3 set_index in
      List.iter
        (fun u ->
          let tasks = Curves.tasks_of ~u names in
          let max_area = Curves.max_area_of tasks in
          Report.row fmt
            [ Report.cell ~width:10 (Printf.sprintf "set %d" set_index);
              Report.cell ~width:8 (Printf.sprintf "U=%.2f" u);
              Report.cell ~width:60 "area%:  0  10  20  30  40  50  60  70  80  90 100" ];
          let budgets = area_steps max_area in
          (* one DP for the row's 11 budgets, bit-identical to 11 runs *)
          let edf_cells =
            List.mapi
              (fun step (edf : Core.Selection.t) ->
                let edf_u = edf.utilization in
                if u > edf_u && step >= 5 then
                  record (step * 10) ((u -. edf_u) /. u *. 100.);
                Printf.sprintf "%.3f" edf_u)
              (Core.Edf_select.run_sweep ~budgets tasks)
          in
          let rms_cells =
            List.map
              (fun budget ->
                match Core.Rms_select.run ~budget tasks with
                | Some sel -> Printf.sprintf "%.3f" sel.Core.Selection.utilization
                | None -> "--")
              budgets
          in
          Report.row fmt
            [ Report.cell ~width:10 ""; Report.cell ~width:8 "EDF";
              String.concat " " (List.map (Report.cellr ~width:6) edf_cells) ];
          Report.row fmt
            [ Report.cell ~width:10 ""; Report.cell ~width:8 "RMS";
              String.concat " " (List.map (Report.cellr ~width:6) rms_cells) ])
        utilizations)
    [ 1; 2; 3; 4; 5; 6 ];
  let mean l = Util.Numeric.sum_byf (fun x -> x) l /. float_of_int (List.length l) in
  List.iter
    (fun frac ->
      match Hashtbl.find_opt reductions_at frac with
      | Some l ->
        Report.row fmt
          [ Report.cell ~width:46
              (Printf.sprintf "mean utilization reduction at %d%% MaxArea" frac);
            Report.pct (mean l) ]
      | None -> ())
    [ 50; 70; 100 ];
  Report.row fmt
    [ Report.cell ~width:46 "paper: ~13% at 50%, ~14% at 75%, up to 19%"; "" ]

(* Figure 3.4: energy saving vs area for task set 3 (TM5400 DVFS). *)
let figure_3_4 fmt =
  Report.banner fmt ~id:"Figure 3.4" "energy saving vs area, task set 3";
  let names = Curves.taskset_ch3 3 in
  Report.row fmt
    [ Report.cell ~width:8 "policy"; Report.cell ~width:8 "U";
      Report.cell ~width:60 "energy saving at 0..100% MaxArea (step 10%)" ];
  List.iter
    (fun u ->
      let tasks = Curves.tasks_of ~u names in
      let n_tasks = List.length tasks in
      let max_area = Curves.max_area_of tasks in
      let software = Core.Selection.software tasks in
      let base_u = software.Core.Selection.utilization in
      List.iter
        (fun (policy, policy_name, select) ->
          let selections = select (area_steps max_area) in
          (* the thesis compares against the original configuration or,
             when that is unschedulable, the first schedulable solution *)
          let reference =
            if base_u <= 1. then Some base_u
            else
              List.find_map
                (Option.map (fun (s : Core.Selection.t) -> s.utilization))
                selections
          in
          let cells =
            List.map
              (fun sel ->
                match (sel, reference) with
                | Some (sel : Core.Selection.t), Some ref_u ->
                  Report.cellr ~width:6
                    (Printf.sprintf "%.1f"
                       (Rt.Energy.saving_percent policy ~n_tasks
                          ~base:(ref_u, ref_u)
                          ~custom:(sel.utilization, sel.utilization)))
                | None, _ | _, None -> Report.cellr ~width:6 "--")
              selections
          in
          Report.row fmt
            [ Report.cell ~width:8 policy_name;
              Report.cell ~width:8 (Printf.sprintf "%.2f" u);
              String.concat " " cells ])
        [ (Rt.Energy.Edf, "EDF",
           fun budgets ->
             (* one DP for the row; EDF schedules a selection iff its
                utilization is at most 1 *)
             List.map
               (fun (sel : Core.Selection.t) ->
                 if sel.utilization <= 1. then Some sel else None)
               (Core.Edf_select.run_sweep ~budgets tasks));
          (Rt.Energy.Rms, "RMS",
           List.map (fun budget -> Core.Rms_select.run ~budget tasks)) ])
    utilizations;
  Report.row fmt
    [ Report.cell ~width:46 "paper: up to 30%; ~14% EDF / ~10% RMS at 75% area"; "" ]

(* Chapter 5 — iterative custom-instruction generation (§5.3). *)

let published_table_5_1 =
  [ ("adpcm_enc", 127_407, 331, 15.);
    ("sha", 9_163_779, 487, 38.);
    ("jfdctint", 2_217, 107, 19.);
    ("g721decode", 113_295_478, 80, 9.);
    ("lms", 65_051, 29, 8.);
    ("ndes", 21_232, 56, 9.);
    ("rijndael", 13_878_360, 239, 24.);
    ("3des", 106_062_791, 2745, 59.);
    ("aes", 30_638, 227, 16.);
    ("blowfish", 435_418_994, 457, 22.) ]

let table_5_1 fmt =
  Report.banner fmt ~id:"Table 5.1" "benchmark characteristics (ours vs published)";
  Report.row fmt
    [ Report.cell "benchmark"; Report.cellr ~width:14 "wcet";
      Report.cellr ~width:14 "published"; Report.cellr ~width:8 "max bb";
      Report.cellr ~width:10 "published"; Report.cellr ~width:8 "avg bb";
      Report.cellr ~width:10 "published" ];
  List.iter
    (fun (name, p_wcet, p_max, p_avg) ->
      let cfg = Kernels.find name in
      Report.row fmt
        [ Report.cell name;
          Report.cellr ~width:14 (string_of_int (Ir.Cfg.wcet cfg));
          Report.cellr ~width:14 (string_of_int p_wcet);
          Report.cellr ~width:8 (string_of_int (Ir.Cfg.max_block_size cfg));
          Report.cellr ~width:10 (string_of_int p_max);
          Report.cellr ~width:8 (Printf.sprintf "%.1f" (Ir.Cfg.avg_block_size cfg));
          Report.cellr ~width:10 (Printf.sprintf "%.1f" p_avg) ])
    published_table_5_1

let table_5_2 fmt =
  Report.banner fmt ~id:"Table 5.2" "task sets";
  for i = 1 to 5 do
    Report.row fmt
      [ Report.cell ~width:8 (string_of_int i);
        String.concat ", " (Curves.taskset_ch5 i) ]
  done

let input_utilizations = [ 1.1; 1.2; 1.3; 1.4; 1.5 ]

let driver_inputs set u =
  Iterative.Driver.tasks_of_kernels ~u
    (List.map (fun n -> (n, Kernels.find n)) (Curves.taskset_ch5 set))

(* Figures 5.3 and 5.4 are two views of the same 25 driver runs:
   whichever asks first runs and times each (set, U) cell once. *)
let driver_memo : (Iterative.Driver.result * float) Engine.Memo.t =
  Engine.Memo.create ~spill:false ~namespace:"ch5.driver" ()

let driver_cell set u =
  fst
  @@ Engine.Memo.find_or_compute driver_memo ~key:(Printf.sprintf "%d|%.1f" set u)
  @@ fun () -> Report.timed (fun () -> Iterative.Driver.run (driver_inputs set u))

let figure_5_3 fmt =
  Report.banner fmt ~id:"Figure 5.3" "utilization vs iterations";
  for set = 1 to 5 do
    List.iter
      (fun u ->
        let result, _ = driver_cell set u in
        let history =
          List.map
            (fun (it : Iterative.Driver.iteration) ->
              Printf.sprintf "%.3f" it.utilization)
            result.Iterative.Driver.iterations
        in
        Report.row fmt
          [ Report.cell ~width:8 (Printf.sprintf "set %d" set);
            Report.cell ~width:8 (Printf.sprintf "U=%.1f" u);
            Report.cell ~width:14
              (if result.Iterative.Driver.schedulable then "schedulable"
               else "infeasible");
            String.concat " -> " history ])
      input_utilizations
  done

let figure_5_4 fmt =
  Report.banner fmt ~id:"Figure 5.4" "analysis time and hardware area vs input utilization";
  Report.row fmt
    [ Report.cell ~width:8 "set"; Report.cell ~width:8 "U";
      Report.cellr ~width:12 "time (s)"; Report.cellr ~width:14 "area (adders)";
      Report.cellr ~width:8 "CIs"; Report.cell ~width:14 "  result" ];
  for set = 1 to 5 do
    List.iter
      (fun u ->
        let result, elapsed = driver_cell set u in
        Report.timing fmt (Printf.sprintf "set %d U=%.1f" set u) elapsed;
        Report.row fmt
          [ Report.cell ~width:8 (string_of_int set);
            Report.cell ~width:8 (Printf.sprintf "%.1f" u);
            Report.cellr ~width:12 (Printf.sprintf "%.2f" elapsed);
            Report.cellr ~width:14
              (Printf.sprintf "%.0f"
                 (Isa.Hw_model.adders_of_units result.Iterative.Driver.total_area));
            Report.cellr ~width:8 (string_of_int result.Iterative.Driver.instruction_count);
            Report.cell ~width:14
              (if result.Iterative.Driver.schedulable then "  schedulable"
               else "  infeasible") ])
      input_utilizations
  done;
  Report.row fmt [ "paper: 10-65 seconds to schedulability (2007-era hardware)" ]

(* Figures 5.5/5.6: MLGP vs IS per kernel — progress of speedup against
   analysis time, and the area/speedup trade-off. *)
let mlgp_vs_is_kernels = [ "g721decode"; "jfdctint"; "blowfish"; "md5"; "sha"; "3des" ]

type progress = { time : float; speedup : float; area : int }

let software_cycles profile =
  Util.Numeric.sum_byf
    (fun ((b : Ir.Cfg.block), freq) -> freq *. float_of_int (Ir.Cfg.block_cycles b))
    profile

(* Run a generator block by block (hottest first), recording cumulative
   (time, speedup, area) after every step it reports. *)
let progress_of_generator ~time_budget ~step_generator cfg =
  let profile =
    Ir.Cfg.profile cfg
    |> List.sort (fun ((b1 : Ir.Cfg.block), f1) (b2, f2) ->
           compare
             (f2 *. float_of_int (Ir.Cfg.block_cycles b2))
             (f1 *. float_of_int (Ir.Cfg.block_cycles b1)))
  in
  let sw = software_cycles profile in
  let started = Unix.gettimeofday () in
  let saved = ref 0. and area = ref 0 in
  let out = ref [] in
  (try
     List.iter
       (fun ((b : Ir.Cfg.block), freq) ->
         if Unix.gettimeofday () -. started > time_budget then raise Exit;
         step_generator b.body (fun (ci : Isa.Custom_inst.t) ->
             saved := !saved +. (freq *. float_of_int (Isa.Custom_inst.gain ci));
             area := !area + ci.Isa.Custom_inst.area;
             let t = Unix.gettimeofday () -. started in
             out :=
               { time = t; speedup = sw /. (sw -. !saved); area = !area } :: !out;
             if t > time_budget then raise Exit))
       profile
   with Exit -> ());
  List.rev !out

let mlgp_step dfg on_ci = List.iter on_ci (Iterative.Mlgp.cover_dfg dfg)

let is_step dfg on_ci =
  ignore (Iterative.Is_baseline.run ~max_instructions:24 ~on_step:on_ci dfg)

(* Figures 5.5 and 5.6 share the same runs. *)
let progress_memo : progress list Engine.Memo.t =
  Engine.Memo.create ~spill:false ~namespace:"ch5.progress" ()

let cached_progress name label step cfg =
  fst
  @@ Engine.Memo.find_or_compute progress_memo ~key:(name ^ "|" ^ label)
  @@ fun () -> progress_of_generator ~time_budget:20. ~step_generator:step cfg

let pp_progress fmt label progress =
  let show =
    (* subsample to at most 8 checkpoints *)
    let n = List.length progress in
    let stride = max 1 (n / 8) in
    List.filteri (fun i _ -> i mod stride = 0 || i = n - 1) progress
  in
  Report.row fmt
    [ Report.cell ~width:18 label;
      String.concat "  "
        (List.map
           (fun p -> Printf.sprintf "%.2fs:%.3fx" p.time p.speedup)
           show) ]

let figure_5_5 fmt =
  Report.banner fmt ~id:"Figure 5.5" "speedup vs analysis time, MLGP vs IS";
  List.iter
    (fun name ->
      let cfg = Kernels.find name in
      Report.row fmt [ Report.cell ~width:18 name ];
      pp_progress fmt "  MLGP" (cached_progress name "mlgp" mlgp_step cfg);
      pp_progress fmt "  IS" (cached_progress name "is" is_step cfg))
    mlgp_vs_is_kernels;
  Report.row fmt
    [ "paper: MLGP completes in seconds; IS takes 1000s+ on large blocks (3des)" ]

let figure_5_6 fmt =
  Report.banner fmt ~id:"Figure 5.6" "hardware area vs speedup, MLGP vs IS";
  List.iter
    (fun name ->
      let cfg = Kernels.find name in
      let final label progress =
        match List.rev progress with
        | last :: _ ->
          Report.row fmt
            [ Report.cell ~width:18 ("  " ^ label);
              Printf.sprintf "%.0f adders -> %.3fx speedup"
                (Isa.Hw_model.adders_of_units last.area)
                last.speedup ]
        | [] -> Report.row fmt [ Report.cell ~width:18 ("  " ^ label); "no instructions" ]
      in
      Report.row fmt [ Report.cell ~width:18 name ];
      final "MLGP" (cached_progress name "mlgp" mlgp_step cfg);
      final "IS" (cached_progress name "is" is_step cfg))
    mlgp_vs_is_kernels

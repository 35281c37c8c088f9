let positive_areas tasks =
  List.concat_map
    (fun (t : Rt.Task.t) ->
      Array.to_list (Isa.Config.points t.curve)
      |> List.filter_map (fun (p : Isa.Config.point) ->
             if p.area > 0 then Some p.area else None))
    tasks

let granularity ~budget tasks =
  max 1 (Util.Numeric.gcd_list (budget :: positive_areas tasks))

(* u.(a) = best utilization of the processed prefix with area budget
   a·Δ; choice.(i).(a) = configuration index picked for task i. *)
let dp_tables ~delta ~cells (tasks : Rt.Task.t array) =
  let n = Array.length tasks in
  let u = Array.make cells 0. in
  let choice = Array.make_matrix n cells 0 in
  for i = 0 to n - 1 do
    let task = tasks.(i) in
    let points = Isa.Config.points task.curve in
    let prev = Array.copy u in
    for cell = 0 to cells - 1 do
      let best = ref infinity and best_j = ref 0 in
      Array.iteri
        (fun j (p : Isa.Config.point) ->
          if p.area <= cell * delta then begin
            let rest = prev.((cell * delta - p.area) / delta) in
            let total = (float_of_int p.cycles /. float_of_int task.period) +. rest in
            if total < !best then begin
              best := total;
              best_j := j
            end
          end)
        points;
      u.(cell) <- !best;
      choice.(i).(cell) <- !best_j
    done
  done;
  choice

(* Recover an assignment by walking the parent pointers backwards from
   the cell holding the requested budget. *)
let traceback ~delta ~choice (tasks : Rt.Task.t array) start_cell =
  let n = Array.length tasks in
  let assignment = ref [] in
  let cell = ref start_cell in
  for i = n - 1 downto 0 do
    let task = tasks.(i) in
    let j = choice.(i).(!cell) in
    let p = (Isa.Config.points task.curve).(j) in
    assignment := (task, p) :: !assignment;
    cell := !cell - (p.Isa.Config.area / delta)
  done;
  Selection.of_assignment !assignment

let run ~budget tasks =
  if budget < 0 then invalid_arg "Edf_select.run: negative budget";
  Engine.Trace.with_span "edf.select"
    ~attrs:
      [ ("tasks", string_of_int (List.length tasks));
        ("budget", string_of_int budget) ]
  @@ fun () ->
  Obs.Metrics.time_s "edf.select" @@ fun () ->
  Obs.Metrics.inc ~labels:[ ("solver", "edf") ] "solver.runs";
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if n = 0 then Selection.of_assignment []
  else begin
    let delta = granularity ~budget (Array.to_list tasks) in
    let cells = (budget / delta) + 1 in
    Obs.Metrics.inc ~by:(float_of_int (n * cells)) "edf.dp_cells";
    (* distinct name: the registry keys kind by family name, so the
       per-solve distribution cannot share the counter's name *)
    Obs.Metrics.observe "edf.dp_cells_per_solve" (float_of_int (n * cells));
    let choice = dp_tables ~delta ~cells tasks in
    traceback ~delta ~choice tasks (cells - 1)
  end

let run_sweep ~budgets tasks =
  List.iter
    (fun b -> if b < 0 then invalid_arg "Edf_select.run_sweep: negative budget")
    budgets;
  match budgets with
  | [] -> []
  | _ ->
    Engine.Trace.with_span "edf.sweep"
      ~attrs:
        [ ("tasks", string_of_int (List.length tasks));
          ("budgets", string_of_int (List.length budgets)) ]
    @@ fun () ->
    Obs.Metrics.time_s "edf.select" @@ fun () ->
    Obs.Metrics.inc "edf.sweeps";
    Obs.Metrics.inc ~labels:[ ("solver", "edf_sweep") ] "solver.runs";
    let tasks = Array.of_list tasks in
    let n = Array.length tasks in
    if n = 0 then List.map (fun _ -> Selection.of_assignment []) budgets
    else begin
      (* The sweep granularity divides every per-budget granularity
         (it is a GCD over a superset), so the per-budget DP's states
         all live on the sweep grid: values, argmin scans and tie
         breaks coincide cell for cell, making each traceback
         bit-identical to [run ~budget]. *)
      let max_budget = List.fold_left max 0 budgets in
      let delta =
        max 1 (Util.Numeric.gcd_list (budgets @ positive_areas (Array.to_list tasks)))
      in
      let cells = (max_budget / delta) + 1 in
      Obs.Metrics.inc ~by:(float_of_int (n * cells)) "edf.dp_cells";
      Obs.Metrics.observe "edf.dp_cells_per_solve" (float_of_int (n * cells));
      let choice = dp_tables ~delta ~cells tasks in
      List.map (fun b -> traceback ~delta ~choice tasks (b / delta)) budgets
    end

let run_schedulable ~budget tasks =
  let sel = run ~budget tasks in
  if sel.Selection.utilization <= 1. then Some sel else None

let exhaustive ~budget tasks =
  let rec explore acc = function
    | [] ->
      let sel = Selection.of_assignment (List.rev acc) in
      if sel.Selection.area <= budget then Some sel else None
    | (task : Rt.Task.t) :: rest ->
      Array.fold_left
        (fun best p ->
          match explore ((task, p) :: acc) rest with
          | None -> best
          | Some sel ->
            (match best with
             | None -> Some sel
             | Some b ->
               if sel.Selection.utilization < b.Selection.utilization then Some sel
               else best))
        None (Isa.Config.points task.curve)
  in
  match explore [] tasks with
  | Some sel -> sel
  | None -> Selection.software tasks

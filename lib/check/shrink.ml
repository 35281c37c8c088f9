let remove_nth xs n = List.filteri (fun i _ -> i <> n) xs

(* Drop node [v] from a DFG spec: edges touching it disappear, higher
   node ids and live-outs shift down by one. *)
let drop_dfg_node (d : Batch.Instance.dfg_spec) v =
  let shift i = if i > v then i - 1 else i in
  { Batch.Instance.kinds = remove_nth d.kinds v;
    edges =
      List.filter_map
        (fun (s, t) ->
          if s = v || t = v then None else Some (shift s, shift t))
        d.edges;
    live_outs =
      List.filter_map
        (fun i -> if i = v then None else Some (shift i))
        d.live_outs }

let map_task (inst : Batch.Instance.t) i f =
  { inst with
    tasks = List.mapi (fun j ts -> if j = i then f ts else ts) inst.tasks }

let candidates (inst : Batch.Instance.t) =
  let n_tasks = List.length inst.tasks in
  let n_nodes = List.length inst.dfg.kinds in
  let drop_tasks =
    List.init n_tasks (fun i ->
        { inst with tasks = remove_nth inst.tasks i })
  in
  let drop_points =
    List.concat
      (List.mapi
         (fun i (ts : Batch.Instance.task_spec) ->
           List.init (List.length ts.points) (fun j ->
               map_task inst i (fun ts ->
                   { ts with points = remove_nth ts.points j })))
         inst.tasks)
  in
  let shrink_budget =
    List.filter_map
      (fun b -> if b < inst.budget && b >= 0 then Some { inst with budget = b } else None)
      [ 0; inst.budget / 2; inst.budget - 1 ]
  in
  let shrink_periods =
    List.init n_tasks (fun i ->
        map_task inst i (fun ts -> { ts with period = max 1 (ts.period / 2) }))
  in
  let shrink_cycles =
    List.concat
      (List.mapi
         (fun i (ts : Batch.Instance.task_spec) ->
           map_task inst i (fun ts -> { ts with base = max 1 (ts.base / 2) })
           :: List.init (List.length ts.points) (fun j ->
                  map_task inst i (fun ts ->
                      { ts with
                        points =
                          List.mapi
                            (fun k (p : Batch.Instance.curve_point) ->
                              if k = j then
                                { Batch.Instance.area = max 0 (p.area / 2);
                                  cycles = max 1 (p.cycles / 2) }
                              else p)
                            ts.points })))
         inst.tasks)
  in
  let drop_nodes =
    List.init n_nodes (fun v -> { inst with dfg = drop_dfg_node inst.dfg v })
  in
  let drop_edges =
    List.init (List.length inst.dfg.edges) (fun j ->
        { inst with
          dfg = { inst.dfg with edges = remove_nth inst.dfg.edges j } })
  in
  let round_eps =
    if inst.eps < 0.5 then [ { inst with eps = 0.5 } ]
    else if inst.eps < 1.0 then [ { inst with eps = 1.0 } ]
    else []
  in
  List.filter
    (fun c ->
      Batch.Instance.valid c
      && (Batch.Instance.size c < Batch.Instance.size inst || c.Batch.Instance.eps <> inst.eps))
    (drop_tasks @ drop_points @ shrink_budget @ drop_nodes @ drop_edges
   @ shrink_periods @ shrink_cycles @ round_eps)

let shrink ?(max_steps = 500) ~still_fails inst =
  let rec go inst steps =
    if steps >= max_steps then (inst, steps)
    else
      match List.find_opt still_fails (candidates inst) with
      | Some smaller -> go smaller (steps + 1)
      | None -> (inst, steps)
  in
  go inst 0

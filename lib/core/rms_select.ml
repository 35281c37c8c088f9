type stats = {
  explored : int;  (** search-tree nodes visited *)
  pruned_bound : int;  (** subtrees cut by the optimistic bound *)
  pruned_schedulability : int;  (** configurations failing the exact test *)
  pruned_area : int;  (** configurations over the remaining budget *)
  status : Engine.Guard.status;  (** [Exact], or [Partial] if the guard ran out *)
}

let sort_by_priority tasks =
  List.sort (fun (a : Rt.Task.t) (b : Rt.Task.t) -> compare a.period b.period) tasks

let run_instrumented ?guard ?(use_bound = true) ?(fastest_first = true) ~budget
    tasks =
  if budget < 0 then invalid_arg "Rms_select.run: negative budget";
  let guard =
    match guard with Some g -> g | None -> Engine.Guard.default ()
  in
  Engine.Trace.with_span "rms.bnb"
    ~attrs:
      [ ("tasks", string_of_int (List.length tasks));
        ("budget", string_of_int budget) ]
  @@ fun () ->
  Obs.Metrics.time_s "rms.select" @@ fun () ->
  Obs.Metrics.inc ~labels:[ ("solver", "rms") ] "solver.runs";
  let tasks = Array.of_list (sort_by_priority tasks) in
  let n = Array.length tasks in
  (* Best achievable utilization of each suffix, area ignored — the
     optimistic component of the bound. *)
  let suffix_best = Array.make (n + 1) 0. in
  for i = n - 1 downto 0 do
    suffix_best.(i) <-
      suffix_best.(i + 1)
      +. (float_of_int (Isa.Config.min_cycles tasks.(i).curve)
          /. float_of_int tasks.(i).period)
  done;
  let incumbent_u = ref infinity in
  let incumbent = ref None in
  let explored = ref 0 and pruned_bound = ref 0 in
  let pruned_schedulability = ref 0 and pruned_area = ref 0 in
  (* Each level's visiting order, per-point utilizations and Theorem 1
     scheduling points depend only on the task set, so they are built
     once per run rather than at every search-tree node. *)
  let order =
    Array.map
      (fun (task : Rt.Task.t) ->
        let points = Array.copy (Isa.Config.points task.curve) in
        if fastest_first then
          Array.sort (fun (a : Isa.Config.point) b -> compare a.cycles b.cycles) points;
        points)
      tasks
  in
  let cost =
    Array.mapi
      (fun i points ->
        Array.map
          (fun (p : Isa.Config.point) ->
            float_of_int p.cycles /. float_of_int tasks.(i).Rt.Task.period)
          points)
      order
  in
  let periods = Array.map (fun (task : Rt.Task.t) -> task.period) tasks in
  let sched_points = Array.init n (Rt.Sched.level_points periods) in
  (* cycles.(j) for j < i holds the chosen execution times, feeding the
     incremental exact test for task i. *)
  let cycles = Array.make n 0 in
  let chosen = Array.make n { Isa.Config.area = 0; cycles = 0 } in
  (* One fuel unit per search-tree node: when the guard runs out the
     whole tree unwinds (every pending call re-checks and returns),
     leaving the incumbent — always a complete, schedulable, in-budget
     assignment — as the anytime answer. *)
  let rec search i area u =
    if not (Engine.Guard.tick guard) then ()
    else begin
      incr explored;
      search_node i area u
    end
  and search_node i area u =
    if i = n then begin
      if u < !incumbent_u then begin
        incumbent_u := u;
        incumbent :=
          Some (Array.to_list (Array.init n (fun j -> (tasks.(j), chosen.(j)))))
      end
    end
    else begin
      let points = order.(i) and costs = cost.(i) and level = sched_points.(i) in
      for k = 0 to Array.length points - 1 do
        let p = points.(k) in
        if p.area > budget - area then incr pruned_area
        else begin
          cycles.(i) <- p.cycles;
          if not (Rt.Sched.level_fits ~points:level ~periods ~cycles i) then
            incr pruned_schedulability
          else begin
            let u' = u +. costs.(k) in
            if use_bound && u' +. suffix_best.(i + 1) >= !incumbent_u then
              incr pruned_bound
            else begin
              chosen.(i) <- p;
              search (i + 1) (area + p.area) u'
            end
          end
        end
      done
    end
  in
  search 0 0 0.;
  Obs.Metrics.inc ~by:(float_of_int !explored) "rms.explored";
  Obs.Metrics.observe "rms.bnb_nodes" (float_of_int !explored);
  Obs.Metrics.inc ~by:(float_of_int !pruned_bound) "rms.pruned_bound";
  Obs.Metrics.inc ~by:(float_of_int !pruned_schedulability)
    "rms.pruned_schedulability";
  Obs.Metrics.inc ~by:(float_of_int !pruned_area) "rms.pruned_area";
  ( Option.map Selection.of_assignment !incumbent,
    { explored = !explored; pruned_bound = !pruned_bound;
      pruned_schedulability = !pruned_schedulability; pruned_area = !pruned_area;
      status = Engine.Guard.status guard } )

let run ~budget tasks =
  (* the documented exact contract: never subject to the default budget *)
  fst (run_instrumented ~guard:(Engine.Guard.create ()) ~budget tasks)

let run_guarded ?guard ~budget tasks =
  let sel, stats = run_instrumented ?guard ~budget tasks in
  (sel, stats.status)

let exhaustive ~budget tasks =
  let tasks = sort_by_priority tasks in
  let rec explore acc = function
    | [] ->
      let sel = Selection.of_assignment (List.rev acc) in
      let pairs =
        List.map
          (fun ((t : Rt.Task.t), (p : Isa.Config.point)) -> (p.cycles, t.period))
          sel.Selection.assignment
      in
      if sel.Selection.area <= budget && Rt.Sched.rms_schedulable pairs then Some sel
      else None
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
  explore [] tasks

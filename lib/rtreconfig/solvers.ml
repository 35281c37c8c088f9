(* Group knapsack over a shared area budget: pick one version per task
   minimising total utilization, i.e. maximising Σ (gain − reload) /
   period; [reload] cycles are added to any hardware-mapped task's job.
   Tasks come back in reverse order. *)
let min_utilization_versions ~tasks ~area ~reload =
  let areas =
    List.concat_map
      (fun (tk : Model.task) ->
        Array.to_list tk.versions
        |> List.filter_map (fun (v : Model.version) ->
               if v.area > 0 then Some v.area else None))
      tasks
  in
  let delta = max 1 (Util.Numeric.gcd_list (area :: areas)) in
  let tasks = Array.of_list tasks in
  let values =
    Array.map
      (fun (tk : Model.task) ->
        (* the reload applies to hardware versions only, so it is asked
           for only when one fits *)
        let fits j (v : Model.version) = j > 0 && v.area <= area in
        if Array.exists Fun.id (Array.mapi fits tk.versions) then begin
          let r = reload tk in
          Array.map
            (fun (v : Model.version) ->
              float_of_int (v.gain - r) /. float_of_int tk.period)
            tk.versions
        end
        else Array.make (Array.length tk.versions) 0.)
      tasks
  in
  let choice =
    Util.Group_knapsack.solve ~capacity:(area / delta)
      ~costs:
        (Array.map
           (fun (tk : Model.task) ->
             Array.map (fun (v : Model.version) -> v.area / delta) tk.versions)
           tasks)
      ~values
  in
  let versions = ref [] in
  Array.iteri (fun g (tk : Model.task) -> versions := (tk.name, choice.(g)) :: !versions) tasks;
  !versions

let placement_of_versions versions ~group_of =
  { Model.version_of = versions;
    config_of =
      List.filter_map
        (fun (name, j) -> if j > 0 then Some (name, group_of name) else None)
        versions }

let static (t : Model.t) =
  Engine.Trace.with_span "rtreconfig.static" @@ fun () ->
  let versions =
    min_utilization_versions ~tasks:t.tasks ~area:t.max_area ~reload:(fun _ -> 0)
  in
  placement_of_versions versions ~group_of:(fun _ -> 0)

(* Branch-and-bound over period-sorted tasks; each leaf is scored on
   indices ({!Compiled.utilization}, in [t.tasks] order, so the bits
   equal [Model.utilization]) and named only when it is the new best. *)
let optimal ?(max_nodes = 2_000_000) (t : Model.t) =
  Engine.Trace.with_span "rtreconfig.optimal" @@ fun () ->
  let sorted =
    List.sort
      (fun (_, (a : Model.task)) (_, (b : Model.task)) -> compare a.period b.period)
      (List.mapi (fun p tk -> (p, tk)) t.tasks)
  in
  let tasks = Array.of_list (List.map snd sorted) in
  (* position in [t.tasks] of the i-th task by period *)
  let pos = Array.of_list (List.map fst sorted) in
  let n = Array.length tasks in
  let compiled = Compiled.compile t in
  let best = ref (static t) in
  let best_u = ref (Model.utilization t !best) in
  let version = Array.make n 0 and config = Array.make n (-1) in
  let group_area = Array.make (max 1 n) 0 in
  let nodes = ref 0 in
  (* optimistic bound: assigned tasks at chosen gains without reloads,
     remaining tasks at their best gains without reloads *)
  let suffix_best = Array.make (n + 1) 0. in
  for i = n - 1 downto 0 do
    let tk = tasks.(i) in
    let best_gain =
      Array.fold_left (fun acc (v : Model.version) -> max acc v.gain) 0 tk.versions
    in
    suffix_best.(i) <-
      suffix_best.(i + 1)
      +. (float_of_int (tk.wcet - best_gain) /. float_of_int tk.period)
  done;
  let rec search i partial_u max_group =
    incr nodes;
    if !nodes < max_nodes then begin
      if i = n then begin
        let u = Compiled.utilization compiled ~version ~config in
        if u < !best_u then begin
          best_u := u;
          best :=
            placement_of_versions
              (List.init n (fun k -> (tasks.(k).Model.name, version.(pos.(k)))))
              ~group_of:(fun name ->
                let rec find k =
                  if tasks.(k).Model.name = name then config.(pos.(k)) else find (k + 1)
                in
                find 0)
        end
      end
      else if partial_u +. suffix_best.(i) < !best_u then begin
        let tk = tasks.(i) and p = pos.(i) in
        (* software option *)
        version.(p) <- 0;
        config.(p) <- -1;
        search (i + 1) (partial_u +. (float_of_int tk.wcet /. float_of_int tk.period)) max_group;
        (* hardware options: version j in group g (canonical numbering) *)
        Array.iteri
          (fun j (v : Model.version) ->
            if j > 0 then
              for g = 0 to min (max_group + 1) (n - 1) do
                if group_area.(g) + v.area <= t.max_area then begin
                  version.(p) <- j;
                  config.(p) <- g;
                  group_area.(g) <- group_area.(g) + v.area;
                  let contribution =
                    float_of_int (tk.wcet - v.gain) /. float_of_int tk.period
                  in
                  search (i + 1) (partial_u +. contribution) (max max_group g);
                  group_area.(g) <- group_area.(g) - v.area
                end
              done)
          tk.versions;
        version.(p) <- 0;
        config.(p) <- -1
      end
    end
  in
  search 0 0. (-1);
  Obs.Metrics.inc ~by:(float_of_int !nodes) "rtreconfig.nodes";
  !best

(* The near-optimal pseudo-polynomial algorithm, reconstructed as an
   enumeration over contiguous-by-period groupings (tasks with similar
   rates interleave most, so they belong together): for every split of
   the period-sorted task list into at most [max_groups] runs, versions
   are selected per run by the utilization knapsack under the
   per-configuration capacity, with reload estimates refined in a second
   pass; the best exactly-evaluated placement (including the static
   seed) wins. *)
let max_groups = 4

let contiguous_partitions n k_max =
  (* lists of run lengths summing to n, at most k_max runs *)
  let rec build remaining k =
    if remaining = 0 then [ [] ]
    else if k = 0 then []
    else
      List.concat_map
        (fun len ->
          List.map (fun rest -> len :: rest) (build (remaining - len) (k - 1)))
        (List.init remaining (fun i -> i + 1))
  in
  build n k_max

let dp (t : Model.t) =
  Engine.Trace.with_span "rtreconfig.dp" @@ fun () ->
  let best = ref (static t) in
  let best_u = ref (Model.utilization t !best) in
  let consider p =
    if Model.feasible t p then begin
      let u = Model.utilization t p in
      if u < !best_u then begin
        best := p;
        best_u := u
      end
    end
  in
  let tasks =
    Array.of_list
      (List.sort (fun (a : Model.task) b -> compare a.period b.period) t.tasks)
  in
  let n = Array.length tasks in
  if n > 0 then
    List.iter
      (fun lengths ->
        (* runs as index ranges *)
        let runs =
          List.rev
            (snd
               (List.fold_left
                  (fun (start, acc) len -> (start + len, (start, len) :: acc))
                  (0, []) lengths))
        in
        let group_of_index i =
          let rec find g = function
            | (start, len) :: rest ->
              if i >= start && i < start + len then g else find (g + 1) rest
            | [] -> assert false
          in
          find 0 runs
        in
        (* Two selection passes: reload estimates first assume every task
           outside the run is hardware-mapped, then use the actual
           hardware set of the first pass. *)
        let select hw_outside =
          List.concat_map
            (fun (start, len) ->
              let members =
                List.init len (fun j -> tasks.(start + j))
              in
              let reload (tk : Model.task) =
                if List.length runs = 1 then 0
                else begin
                  let i =
                    let rec find k = if tasks.(k).Model.name = tk.name then k else find (k + 1) in
                    find 0
                  in
                  let own = group_of_index i in
                  let preempts = ref 0 in
                  Array.iteri
                    (fun j (other : Model.task) ->
                      if
                        group_of_index j <> own
                        && hw_outside other.name
                        && other.period < tk.period
                      then
                        preempts :=
                          !preempts + (2 * Util.Numeric.ceil_div tk.period other.period))
                    tasks;
                  t.reconfig_cost * (1 + !preempts)
                end
              in
              min_utilization_versions ~tasks:members ~area:t.max_area ~reload)
            runs
        in
        let pass1 = select (fun _ -> true) in
        let hw1 name = match List.assoc_opt name pass1 with Some j -> j > 0 | None -> false in
        let pass2 = select hw1 in
        let group_of_name name =
          let rec find k = if tasks.(k).Model.name = name then k else find (k + 1) in
          group_of_index (find 0)
        in
        consider (placement_of_versions pass1 ~group_of:group_of_name);
        consider (placement_of_versions pass2 ~group_of:group_of_name))
      (contiguous_partitions n (min n max_groups));
  !best

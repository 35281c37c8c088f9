(* Algorithm 7: group-knapsack DP over the area budget — each member
   loop picks exactly one version; maximise total gain.  Versions per
   member, in member order. *)
let select versions members ~area =
  if area < 0 then invalid_arg "spatial_select: negative area";
  let delta =
    Array.fold_left
      (fun acc i ->
        Array.fold_left
          (fun acc (v : Problem.version) ->
            if v.area > 0 then Util.Numeric.gcd acc v.area else acc)
          acc versions.(i))
      area members
    |> max 1
  in
  Util.Group_knapsack.solve ~capacity:(area / delta)
    ~costs:
      (Array.map
         (fun i -> Array.map (fun (v : Problem.version) -> v.area / delta) versions.(i))
         members)
    ~values:
      (Array.map
         (fun i -> Array.map (fun (v : Problem.version) -> float_of_int v.gain) versions.(i))
         members)

let spatial_select ~loops ~area =
  let versions = Array.of_list (List.map (fun (l : Problem.hot_loop) -> l.versions) loops) in
  let choice = select versions (Array.init (Array.length versions) Fun.id) ~area in
  List.mapi (fun g (l : Problem.hot_loop) -> (l.name, choice.(g))) loops

let rcg (t : Problem.t) ~keep ~weight_of =
  let kept =
    List.filter (fun (l : Problem.hot_loop) -> keep l.name) t.loops
    |> List.map (fun (l : Problem.hot_loop) -> l.name)
    |> Array.of_list
  in
  let index name =
    let rec find i = if kept.(i) = name then i else find (i + 1) in
    find 0
  in
  let edges =
    Ir.Trace.pair_counts ~keep:(fun n -> Array.exists (( = ) n) kept) t.trace
    |> List.map (fun ((a, b), w) -> (index a, index b, w))
  in
  let vertex_weights = Array.map weight_of kept in
  (kept, Partition.Graph.make ~vertex_weights ~edges)

(* Local spatial patch-up: re-select versions for the loops of each
   configuration under the real per-configuration capacity; loops that
   fall back to version 0 leave the configuration.  [groups] are the
   non-empty configurations as loop-index arrays; configuration ids are
   their positions. *)
let local_spatial (c : Compiled.t) groups =
  let n = Array.length c.names in
  let version = Array.make n 0 and config = Array.make n (-1) in
  List.iteri
    (fun cid members ->
      let choice = select c.versions members ~area:c.problem.max_area in
      Array.iteri
        (fun k i ->
          version.(i) <- choice.(k);
          if choice.(k) > 0 then config.(i) <- cid)
        members)
    groups;
  (version, config)

(* The named placement of [local_spatial]'s arrays, in the order the
   solvers have always returned: pushed group by group, member by
   member, then the loops of no group in software. *)
let local_placement (c : Compiled.t) groups ~version ~config =
  let version_of = ref [] and config_of = ref [] in
  let seen = Array.make (Array.length c.names) false in
  List.iter
    (Array.iter (fun i ->
         seen.(i) <- true;
         version_of := (c.names.(i), version.(i)) :: !version_of;
         if version.(i) > 0 then config_of := (c.names.(i), config.(i)) :: !config_of))
    groups;
  Array.iteri
    (fun i name -> if not seen.(i) then version_of := (name, 0) :: !version_of)
    c.names;
  { Problem.version_of = !version_of; config_of = !config_of }

(* Parts [0, k) of an assignment over [members] as loop-index arrays,
   empty parts dropped. *)
let groups_of_assignment members assignment k =
  List.init k (fun part ->
      Array.of_list
        (List.filteri (fun i _ -> assignment.(i) = part) (Array.to_list members)))
  |> List.filter (fun g -> Array.length g > 0)

let iterative ?(seed = 1) ?(imbalances = [ 0.25; 1.0; 3.0 ]) (t : Problem.t) =
  Engine.Trace.with_span "reconfig.iterative" @@ fun () ->
  let c = Compiled.compile t in
  let n = Array.length c.names in
  let best = ref (Problem.software_placement t) in
  let best_gain = ref (Problem.net_gain t !best) in
  let consider groups =
    let version, config = local_spatial c groups in
    if Compiled.feasible c ~version ~config then begin
      let g = Compiled.net_gain c ~version ~config in
      if g > !best_gain then begin
        best := local_placement c groups ~version ~config;
        best_gain := g
      end
    end
  in
  (* The k-way partitioner is sensitive to its seed and, much more, to
     the balance constraint: equal-weight parts are the thesis's
     heuristic default, but when a few loops dominate the area the best
     clusterings are lopsided.  A small portfolio costs little (the
     spatial DPs dominate the runtime). *)
  let portfolio =
    List.concat_map (fun imb -> [ (seed, imb); (seed + 13, imb) ]) imbalances
  in
  let all = Array.init n Fun.id in
  (* the graph of phase 2/3 without the CIS selection is the same for
     every k *)
  let unit_names, unit_graph = rcg t ~keep:(fun _ -> true) ~weight_of:(fun _ -> 1) in
  let unit_members = Array.map (Compiled.index c) unit_names in
  for k = 1 to max 1 n do
    (* Phase 1: global spatial partitioning over a virtual area k·MaxA. *)
    let global = select c.versions all ~area:(k * t.max_area) in
    (* Phase 2/3 with the CIS selection. *)
    (if Array.exists (fun j -> j > 0) global then begin
       let keep name = global.(Compiled.index c name) > 0 in
       let weight_of name =
         let i = Compiled.index c name in
         c.versions.(i).(global.(i)).area
       in
       let names, graph = rcg t ~keep ~weight_of in
       let members = Array.map (Compiled.index c) names in
       let k' = min k (Array.length names) in
       List.iter
         (fun (seed, imbalance) ->
           let r = Partition.Kway.partition ~imbalance ~seed ~k:k' graph in
           consider (groups_of_assignment members r.Partition.Kway.assignment k'))
         portfolio
     end);
    (* Phase 2/3 ignoring the CIS selection: unit weights, all loops. *)
    if Array.length unit_names > 0 then begin
      let k' = min k (Array.length unit_names) in
      List.iter
        (fun (seed, imbalance) ->
          let r = Partition.Kway.partition ~imbalance ~seed ~k:k' unit_graph in
          consider (groups_of_assignment unit_members r.Partition.Kway.assignment k'))
        portfolio
    end
  done;
  !best

(* Algorithm 8. *)
let greedy (t : Problem.t) =
  Engine.Trace.with_span "reconfig.greedy" @@ fun () ->
  let c = Compiled.compile t in
  let n = Array.length c.names in
  (* configuration of every selected loop: committed ones and those of
     the configuration being built *)
  let config = Array.make n (-1) in
  let committed = ref [] (* (loop, version, config) *) in
  let current = ref [] (* (loop, version) of the configuration being built *)
  and current_id = ref 0
  and current_area = ref 0 in
  let finished = ref false in
  while not !finished do
    let base_reconfigs = Compiled.reconfigurations c ~config in
    let best = ref None in
    for i = 0 to n - 1 do
      if config.(i) < 0 then begin
        config.(i) <- !current_id;
        let extra_cost =
          (Compiled.reconfigurations c ~config - base_reconfigs) * t.reconfig_cost
        in
        config.(i) <- -1;
        Array.iteri
          (fun j (v : Problem.version) ->
            if j > 0 && v.area <= t.max_area - !current_area then begin
              let expected = v.gain - extra_cost in
              if expected > 0 then
                match !best with
                | Some (bg, _, _) when bg >= expected -> ()
                | Some _ | None -> best := Some (expected, i, j)
            end)
          c.versions.(i)
      end
    done;
    match !best with
    | Some (_, i, j) ->
      current := (i, j) :: !current;
      config.(i) <- !current_id;
      current_area := !current_area + c.versions.(i).(j).area
    | None ->
      if !current <> [] then begin
        committed := !committed @ List.map (fun (i, j) -> (i, j, !current_id)) !current;
        current := [];
        current_area := 0;
        incr current_id
      end
      else finished := true
  done;
  let version = Array.make n 0 in
  List.iter (fun (i, j, _) -> version.(i) <- j) !committed;
  { Problem.version_of = Array.to_list (Array.mapi (fun i j -> (c.names.(i), j)) version);
    config_of = List.map (fun (i, _, cid) -> (c.names.(i), cid)) !committed }

let bell n =
  let b = Array.make (n + 1) 0. in
  b.(0) <- 1.;
  for i = 1 to n do
    (* B(i) = Σ C(i-1,k) B(k) *)
    let sum = ref 0. in
    let c = ref 1. in
    for k = 0 to i - 1 do
      sum := !sum +. (!c *. b.(k));
      c := !c *. float_of_int (i - 1 - k) /. float_of_int (k + 1)
    done;
    b.(i) <- !sum
  done;
  b.(n)

(* Set-partition enumeration (restricted-growth strings).  The same
   loop group recurs in many set partitions, so its version selection,
   gain, area and hardware members are memoised by bitmask; a partition
   is scored on indices and named only when it beats the incumbent. *)
let exhaustive ?(max_partitions = 500_000) (t : Problem.t) =
  Engine.Trace.with_span "reconfig.exhaustive" @@ fun () ->
  let n = List.length t.loops in
  if bell n > float_of_int max_partitions then None
  else begin
    let c = Compiled.compile t in
    let best = ref (Problem.software_placement t) in
    let best_gain = ref (Problem.net_gain t !best) in
    let size = 1 lsl n in
    let selection = Array.make size [||] (* [||]: not computed yet *)
    and gain = Array.make size 0
    and area = Array.make size 0
    and hardware = Array.make size 0 in
    let members mask =
      Array.of_list (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id))
    in
    let group mask =
      if Array.length selection.(mask) = 0 then begin
        let members = members mask in
        let choice = select c.versions members ~area:t.max_area in
        selection.(mask) <- choice;
        Array.iteri
          (fun k i ->
            let v = c.versions.(i).(choice.(k)) in
            gain.(mask) <- gain.(mask) + v.gain;
            area.(mask) <- area.(mask) + v.area;
            if choice.(k) > 0 then hardware.(mask) <- hardware.(mask) lor (1 lsl i))
          members
      end
    in
    let assignment = Array.make n 0 and masks = Array.make n 0 in
    let config = Array.make n (-1) in
    let partitions = ref 0 in
    let name_partition k =
      let groups = List.init k (fun part -> members masks.(part)) in
      let version = Array.make n 0 in
      List.iteri
        (fun part -> Array.iteri (fun slot i -> version.(i) <- selection.(masks.(part)).(slot)))
        groups;
      local_placement c groups ~version ~config
    in
    let score k =
      incr partitions;
      let raw = ref 0 and fits = ref true in
      for part = 0 to k - 1 do
        let mask = masks.(part) in
        group mask;
        raw := !raw + gain.(mask);
        if area.(mask) > t.max_area then fits := false
      done;
      (* reloads only subtract, so a partition whose raw gain cannot
         beat the incumbent needs no trace replay *)
      if !fits && (!raw > !best_gain || t.reconfig_cost < 0) then begin
        for i = 0 to n - 1 do
          let part = assignment.(i) in
          config.(i) <- (if hardware.(masks.(part)) land (1 lsl i) <> 0 then part else -1)
        done;
        let g = !raw - (Compiled.reconfigurations c ~config * t.reconfig_cost) in
        if g > !best_gain then begin
          best := name_partition k;
          best_gain := g
        end
      end
    in
    let rec enumerate i max_used =
      if i = n then score (max_used + 1)
      else
        for part = 0 to min (max_used + 1) (n - 1) do
          assignment.(i) <- part;
          masks.(part) <- masks.(part) lor (1 lsl i);
          enumerate (i + 1) (max max_used part);
          masks.(part) <- masks.(part) land lnot (1 lsl i)
        done
    in
    if n > 0 then enumerate 0 (-1);
    Obs.Metrics.inc ~by:(float_of_int !partitions) "reconfig.partitions";
    Some !best
  end

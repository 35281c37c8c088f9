let combination_count tasks =
  List.fold_left
    (fun acc (t : Rt.Task.t) ->
      let n = Isa.Config.size t.curve in
      if acc > max_int / max n 1 then max_int else acc * n)
    1 tasks

(* The oracles are exhaustive by design, so an anytime partial answer
   would be worse than useless — it could silently agree with a buggy
   solver.  A guard therefore does not degrade them: [check_exn] raises
   [Engine.Guard.Exhausted] and the caller (a property) skips the case,
   keeping the differential verdicts all-or-nothing. *)
let oracle_tick guard =
  match guard with Some g -> Engine.Guard.check_exn g | None -> ()

let selections ?guard ~budget tasks =
  let rec explore acc = function
    | [] ->
      oracle_tick guard;
      let sel = Core.Selection.of_assignment (List.rev acc) in
      if sel.Core.Selection.area <= budget then [ sel ] else []
    | (task : Rt.Task.t) :: rest ->
      Array.fold_left
        (fun sels p -> sels @ explore ((task, p) :: acc) rest)
        []
        (Isa.Config.points task.curve)
  in
  explore [] tasks

let better (a : Core.Selection.t) (b : Core.Selection.t) =
  a.utilization < b.utilization -. 1e-12
  || (Float.abs (a.utilization -. b.utilization) <= 1e-12 && a.area < b.area)

let edf_best ?guard ~budget tasks =
  List.fold_left
    (fun best sel -> if better sel best then sel else best)
    (Core.Selection.software tasks)
    (selections ?guard ~budget tasks)

let response_time_schedulable pairs =
  let by_priority =
    List.stable_sort (fun (_, p1) (_, p2) -> compare p1 p2) pairs
    |> Array.of_list
  in
  let n = Array.length by_priority in
  let rec fits i =
    if i = n then true
    else begin
      let ci, pi = by_priority.(i) in
      (* least fixpoint of R = Cᵢ + Σ_{j<i} ⌈R/Pⱼ⌉ Cⱼ, abandoned past
         the deadline Pᵢ *)
      let rec iterate r =
        let demand = ref ci in
        for j = 0 to i - 1 do
          let cj, pj = by_priority.(j) in
          demand := !demand + (Util.Numeric.ceil_div r pj * cj)
        done;
        if !demand = r then r <= pi
        else if !demand > pi then false
        else iterate !demand
      in
      (ci = 0 || iterate ci) && fits (i + 1)
    end
  in
  fits 0

let rms_best ?guard ~budget tasks =
  List.fold_left
    (fun best sel ->
      let pairs =
        List.map
          (fun ((t : Rt.Task.t), (p : Isa.Config.point)) -> (p.cycles, t.period))
          sel.Core.Selection.assignment
      in
      if not (response_time_schedulable pairs) then best
      else
        match best with
        | None -> Some sel
        | Some b -> if better sel b then Some sel else best)
    None
    (selections ?guard ~budget tasks)

let pareto_exhaustive ?guard ~base entities =
  let with_zero (e : Pareto.Mo_select.entity) =
    if Array.exists (fun (o : Pareto.Mo_select.option_) -> o.cost = 0 && o.delta = 0.) e
    then e
    else Array.append [| { Pareto.Mo_select.delta = 0.; cost = 0 } |] e
  in
  let rec explore cost delta = function
    | [] ->
      oracle_tick guard;
      [ { Util.Pareto_front.cost; value = base -. delta } ]
    | e :: rest ->
      Array.fold_left
        (fun acc (o : Pareto.Mo_select.option_) ->
          acc @ explore (cost + o.cost) (delta +. o.delta) rest)
        [] (with_zero e)
  in
  Util.Pareto_front.front (explore 0 0. entities)

(* The Chapter 3 solvers as they stood before the allocation-free
   kernels, minus their trace and telemetry: the EDF DP copies a row per
   task and scans each cell's points through a closure, recomputing
   every point's utilization and offset per cell; the RMS
   branch-and-bound re-sorts a task's points at every node and rebuilds
   the prefix task array and the IntSet of Theorem 1 scheduling points
   for every configuration it tests.  Kept unchanged as the
   differential references the [select] suite compares the production
   kernels with, bit for bit. *)
module Edf_dp_ref = struct
  let positive_areas tasks =
    List.concat_map
      (fun (t : Rt.Task.t) ->
        Array.to_list (Isa.Config.points t.curve)
        |> List.filter_map (fun (p : Isa.Config.point) ->
               if p.area > 0 then Some p.area else None))
      tasks

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
    Core.Selection.of_assignment !assignment

  let run_sweep ~budgets tasks =
    let tasks = Array.of_list tasks in
    if Array.length tasks = 0 then
      List.map (fun _ -> Core.Selection.of_assignment []) budgets
    else begin
      let max_budget = List.fold_left max 0 budgets in
      let delta =
        max 1 (Util.Numeric.gcd_list (budgets @ positive_areas (Array.to_list tasks)))
      in
      let cells = (max_budget / delta) + 1 in
      let choice = dp_tables ~delta ~cells tasks in
      List.map (fun b -> traceback ~delta ~choice tasks (b / delta)) budgets
    end

  let run ~budget tasks =
    match run_sweep ~budgets:[ budget ] tasks with
    | [ sel ] -> sel
    | _ -> assert false
end

module Rms_ref = struct
  module IntSet = Set.Make (Int)

  let scheduling_points tasks j t =
    let rec s j t acc =
      if t <= 0 then acc
      else if j = 0 then IntSet.add t acc
      else
        let _, p = tasks.(j - 1) in
        let acc = s (j - 1) (t / p * p) acc in
        s (j - 1) t acc
    in
    s j t IntSet.empty

  let rms_schedulable_prefix tasks i =
    let _, pi = tasks.(i) in
    let workload t =
      let w = ref 0 in
      for j = 0 to i do
        let c, p = tasks.(j) in
        w := !w + (Util.Numeric.ceil_div t p * c)
      done;
      !w
    in
    IntSet.exists (fun t -> workload t <= t) (scheduling_points tasks i pi)

  let run_instrumented ~guard ~use_bound ~fastest_first ~budget tasks =
    let tasks =
      Array.of_list
        (List.sort (fun (a : Rt.Task.t) (b : Rt.Task.t) -> compare a.period b.period) tasks)
    in
    let n = Array.length tasks in
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
    let cycles = Array.make n 0 in
    let chosen = Array.make n { Isa.Config.area = 0; cycles = 0 } in
    let prefix_tasks i =
      Array.init (i + 1) (fun j -> (cycles.(j), tasks.(j).Rt.Task.period))
    in
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
        let task = tasks.(i) in
        let points = Array.copy (Isa.Config.points task.curve) in
        if fastest_first then
          Array.sort (fun (a : Isa.Config.point) b -> compare a.cycles b.cycles) points;
        Array.iter
          (fun (p : Isa.Config.point) ->
            if p.area > budget - area then incr pruned_area
            else begin
              cycles.(i) <- p.cycles;
              if not (rms_schedulable_prefix (prefix_tasks i) i) then
                incr pruned_schedulability
              else begin
                let u' = u +. (float_of_int p.cycles /. float_of_int task.period) in
                if use_bound && u' +. suffix_best.(i + 1) >= !incumbent_u then
                  incr pruned_bound
                else begin
                  chosen.(i) <- p;
                  search (i + 1) (area + p.area) u'
                end
              end
            end)
          points
      end
    in
    search 0 0 0.;
    ( Option.map Core.Selection.of_assignment !incumbent,
      { Core.Rms_select.explored = !explored;
        pruned_bound = !pruned_bound;
        pruned_schedulability = !pruned_schedulability;
        pruned_area = !pruned_area;
        status = Engine.Guard.status guard } )
end

(* The Chapter 4 group-knapsack DP as it stood before the in-place
   kernel of [Pareto.Mo_select]: fresh full-width arrays for every
   entity row, scaled costs recomputed per (cell, option), one fresh
   DP per FPTAS coordinate.  Kept unchanged as the differential
   reference the [pareto] suite compares the production kernel with,
   bit for bit.  Unlike the oracles above, its guard keeps the
   production semantics (stop between entities, status [Partial]). *)
module Pareto_ref = struct
  type option_ = Pareto.Mo_select.option_ = { delta : float; cost : int }

  let with_zero_option entity =
    if Array.exists (fun o -> o.delta = 0. && o.cost = 0) entity then entity
    else Array.append [| { delta = 0.; cost = 0 } |] entity

  let normalise entities =
    List.map with_zero_option entities
    |> List.map
         (Array.map (fun o ->
              if o.cost < 0 || o.delta < 0. then
                invalid_arg "Mo_select: negative option"
              else o))

  (* Group knapsack: one option per entity, maximise Σ delta subject to a
     per-option cost function and a cell count.  Returns, per cost cell,
     the best delta and the true (untransformed) cost of a solution
     achieving it.

     The guard is ticked once per entity, weighted by the row width (the
     DP's actual work), and an exhausted guard stops the fold between
     entities.  The prefix DP is still sound: every cell holds a choice
     over the processed entities only, and [normalise] gives each entity
     a zero option, so those partial solutions remain achievable — they
     are just possibly dominated by full ones. *)
  let group_knapsack ?guard entities ~cells ~scaled_cost =
    let best = Array.make (cells + 1) neg_infinity in
    let true_cost = Array.make (cells + 1) 0 in
    best.(0) <- 0.;
    let rec process = function
      | [] -> ()
      | entity :: rest ->
        let row_ok =
          match guard with
          | None -> true
          | Some g -> Engine.Guard.tick ~cost:(1 + cells) g
        in
        if row_ok then begin
          let next = Array.make (cells + 1) neg_infinity in
          let next_cost = Array.make (cells + 1) 0 in
          for cell = 0 to cells do
            if best.(cell) > neg_infinity then
              Array.iter
                (fun o ->
                  let c = cell + scaled_cost o in
                  if c <= cells then begin
                    let d = best.(cell) +. o.delta in
                    if d > next.(c) then begin
                      next.(c) <- d;
                      next_cost.(c) <- true_cost.(cell) + o.cost
                    end
                  end)
                entity
          done;
          Array.blit next 0 best 0 (cells + 1);
          Array.blit next_cost 0 true_cost 0 (cells + 1);
          process rest
        end
    in
    process entities;
    (best, true_cost)

  let exact_front_guarded ?guard ~base entities =
    let guard =
      match guard with Some g -> g | None -> Engine.Guard.default ()
    in
    let entities = normalise entities in
    let total =
      Util.Numeric.sum_by
        (fun e -> Array.fold_left (fun acc o -> max acc o.cost) 0 e)
        entities
    in
    let best, _ =
      group_knapsack ~guard entities ~cells:total ~scaled_cost:(fun o -> o.cost)
    in
    let points = ref [] in
    Array.iteri
      (fun cost d ->
        if d > neg_infinity then
          points := { Util.Pareto_front.cost; value = base -. d } :: !points)
      best;
    (Util.Pareto_front.front !points, Engine.Guard.status guard)

  let count_options entities =
    Util.Numeric.sum_by Array.length entities

  (* One scaled DP: costs mapped by a'= ⌈a·r/b⌉, capped at r cells. *)
  let scaled_best ~r ~bound entities =
    let scaled_cost o = Util.Numeric.ceil_div (o.cost * r) (max 1 bound) in
    group_knapsack entities ~cells:r ~scaled_cost

  let gap ~eps ~cost_bound ~value_bound ~base entities =
    if eps <= 0. then invalid_arg "Mo_select.gap: eps must be positive";
    let entities = normalise entities in
    if cost_bound <= 0 then None
    else begin
      let n = max 1 (count_options entities) in
      let r = int_of_float (ceil (float_of_int n /. eps)) in
      let best, true_cost = scaled_best ~r ~bound:cost_bound entities in
      let found = ref None in
      Array.iteri
        (fun cell d ->
          if d > neg_infinity && base -. d <= value_bound +. 1e-9 then
            let candidate =
              { Util.Pareto_front.cost = true_cost.(cell); value = base -. d }
            in
            match !found with
            | None -> found := Some candidate
            | Some cur ->
              if
                candidate.value < cur.value
                || (candidate.value = cur.value && candidate.cost < cur.cost)
              then found := Some candidate)
        best;
      !found
    end

  let approx_front ~eps ~base entities =
    if eps <= 0. then invalid_arg "Mo_select.approx_front: eps must be positive";
    let entities = normalise entities in
    let eps' = sqrt (1. +. eps) -. 1. in
    let n = max 1 (count_options entities) in
    let r = int_of_float (ceil (float_of_int n /. eps')) in
    let max_cost =
      List.fold_left
        (fun acc e -> Array.fold_left (fun acc o -> max acc o.cost) acc e)
        0 entities
    in
    let upper = max 1 (n * max_cost) in
    (* Geometric grid of cost coordinates with ratio (1 + ε'). *)
    let coords =
      let rec build b acc =
        if b > float_of_int upper then List.rev (upper :: acc)
        else build (b *. (1. +. eps')) (int_of_float (ceil b) :: acc)
      in
      build 1. []
      |> List.sort_uniq compare
    in
    let points = ref [ { Util.Pareto_front.cost = 0; value = base } ] in
    List.iter
      (fun b ->
        let best, true_cost = scaled_best ~r ~bound:b entities in
        (* Best value achievable at this coordinate. *)
        let best_point = ref None in
        Array.iteri
          (fun cell d ->
            if d > neg_infinity then
              let p = { Util.Pareto_front.cost = true_cost.(cell); value = base -. d } in
              match !best_point with
              | None -> best_point := Some p
              | Some cur -> if p.value < cur.value then best_point := Some p)
          best;
        match !best_point with
        | Some p -> points := p :: !points
        | None -> ())
      coords;
    Util.Pareto_front.front !points

  let solve_at_cost ~cost ~base entities =
    let entities = normalise entities in
    let cells = max 0 cost in
    let best, _ = group_knapsack entities ~cells ~scaled_cost:(fun o -> o.cost) in
    let d = Array.fold_left Float.max neg_infinity best in
    base -. d
end

(* The identification algorithms as they stood before word bitsets, the
   bounded queue and the ancestor-closure hull, minus their trace,
   telemetry and saturation logging. *)
module Bitset = Util.Bitset

let key_of_set set = String.concat "," (List.map string_of_int (Bitset.elements set))

module Enumerate_ref = struct
  let frontier dfg allowed set =
    let out = ref [] in
    let consider v =
      if
        Ir.Dfg.valid_node dfg v
        && (not (Bitset.mem set v))
        && Bitset.mem allowed v
        && not (List.mem v !out)
      then out := v :: !out
    in
    Bitset.iter
      (fun v ->
        List.iter consider (Ir.Dfg.preds dfg v);
        List.iter consider (Ir.Dfg.succs dfg v))
      set;
    !out

  let connected_full ~guard ~constraints ~(budget : Ise.Enumerate.budget) ?allowed dfg =
    let n = Ir.Dfg.node_count dfg in
    let allowed =
      match allowed with
      | Some a -> a
      | None -> Bitset.of_list n (List.init n (fun i -> i))
    in
    let seen = Hashtbl.create 1024 in
    let queue = Queue.create () in
    let push set =
      let key = key_of_set set in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Queue.push set queue
      end
    in
    for v = 0 to n - 1 do
      if Ir.Dfg.valid_node dfg v && Bitset.mem allowed v then
        push (Bitset.of_list n [ v ])
    done;
    let results = ref [] in
    let emitted = ref 0 in
    let explored = ref 0 in
    while
      (not (Queue.is_empty queue))
      && !explored < budget.max_explored
      && !emitted < budget.max_candidates
      && Engine.Guard.tick guard
    do
      let set = Queue.pop queue in
      incr explored;
      (match Isa.Custom_inst.check ~constraints dfg set with
       | Ok ci when Isa.Custom_inst.gain ci > 0 ->
         incr emitted;
         results := ci :: !results
       | Ok _ | Error _ -> ());
      if Bitset.cardinal set < budget.max_size then
        List.iter
          (fun v ->
            let grown = Bitset.copy set in
            Bitset.set grown v;
            push grown)
          (frontier dfg allowed set)
    done;
    let saturation =
      if !emitted >= budget.max_candidates then Some Ise.Enumerate.Cap_candidates
      else if (not (Queue.is_empty queue)) && !explored >= budget.max_explored
      then Some Ise.Enumerate.Cap_explored
      else None
    in
    (List.rev !results, saturation)
end

module Isegen_ref = struct
  let frontier dfg allowed set =
    let out = ref [] in
    let consider v =
      if
        Ir.Dfg.valid_node dfg v
        && (not (Bitset.mem set v))
        && Bitset.mem allowed v
        && not (List.mem v !out)
      then out := v :: !out
    in
    Bitset.iter
      (fun v ->
        List.iter consider (Ir.Dfg.preds dfg v);
        List.iter consider (Ir.Dfg.succs dfg v))
      set;
    List.sort compare !out

  let generate ~guard ~constraints ~(params : Ise.Isegen.params) ?allowed dfg =
    let n = Ir.Dfg.node_count dfg in
    let allowed =
      match allowed with
      | Some a -> a
      | None -> Bitset.of_list n (List.init n (fun i -> i))
    in
    let usable v = Ir.Dfg.valid_node dfg v && Bitset.mem allowed v in
    let hull set v =
      let c = Bitset.copy set in
      Bitset.set c v;
      let desc = Bitset.create n in
      Bitset.iter (fun a -> Bitset.union_into desc (Ir.Dfg.reachable_from dfg a)) c;
      let ok = ref true in
      for w = 0 to n - 1 do
        if
          !ok && (not (Bitset.mem c w))
          && Bitset.mem desc w
          && Bitset.intersects (Ir.Dfg.reachable_from dfg w) c
        then if usable w then Bitset.set c w else ok := false
      done;
      if !ok then Some c else None
    in
    let score ci =
      let excess_in =
        max 0 (ci.Isa.Custom_inst.inputs - constraints.Isa.Hw_model.max_inputs)
      and excess_out =
        max 0 (ci.Isa.Custom_inst.outputs - constraints.Isa.Hw_model.max_outputs)
      in
      (8 * Isa.Custom_inst.gain ci) - (params.io_penalty * (excess_in + excess_out))
    in
    let found : (string, Isa.Custom_inst.t) Hashtbl.t = Hashtbl.create 256 in
    let evaluate set =
      let ci = Isa.Custom_inst.make_unchecked dfg set in
      (match Isa.Custom_inst.check ~constraints dfg set with
       | Ok checked when Isa.Custom_inst.gain checked > 0 ->
         let key = key_of_set set in
         if not (Hashtbl.mem found key) then Hashtbl.add found key checked
       | Ok _ | Error _ -> ());
      ci
    in
    let walk start =
      let cur = ref (Bitset.of_list n [ start ]) in
      let cur_score = ref (score (evaluate !cur)) in
      let moves = ref 0 in
      let continue_ = ref true in
      while !continue_ && !moves < params.max_moves && Engine.Guard.tick guard do
        incr moves;
        let best = ref None in
        let consider set =
          if not (Bitset.equal set !cur) then begin
            let s = score (evaluate set) in
            match !best with
            | Some (bs, bk, _) when bs > s || (bs = s && bk <= key_of_set set) -> ()
            | _ -> best := Some (s, key_of_set set, set)
          end
        in
        if Bitset.cardinal !cur < params.max_size then
          List.iter
            (fun v ->
              match hull !cur v with
              | Some h when Bitset.cardinal h <= params.max_size -> consider h
              | Some _ | None -> ())
            (frontier dfg allowed !cur);
        if Bitset.cardinal !cur > 1 then
          Bitset.iter
            (fun v ->
              let sub = Bitset.copy !cur in
              Bitset.clear sub v;
              if Ir.Dfg.is_connected dfg sub && Ir.Dfg.is_convex dfg sub then
                consider sub)
            !cur;
        match !best with
        | Some (s, _, set) when s > !cur_score ->
          cur := set;
          cur_score := s
        | Some _ | None -> continue_ := false
      done
    in
    let seeds = List.filter usable (List.init n (fun i -> i)) in
    let seeds =
      if List.length seeds <= params.restarts then seeds
      else begin
        let arr = Array.of_list seeds in
        Util.Prng.shuffle (Util.Prng.create params.seed) arr;
        Array.to_list (Array.sub arr 0 params.restarts)
      end
    in
    List.iter (fun s -> if Engine.Guard.tick guard then walk s) seeds;
    let by_quality a b =
      match compare (Isa.Custom_inst.gain b) (Isa.Custom_inst.gain a) with
      | 0 ->
        compare (key_of_set a.Isa.Custom_inst.nodes) (key_of_set b.Isa.Custom_inst.nodes)
      | c -> c
    in
    let pool =
      Hashtbl.fold (fun _ ci acc -> ci :: acc) found []
      |> List.sort by_quality
      |> List.filteri (fun i _ -> i < params.merge_pool)
    in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if i < j && Engine.Guard.tick guard then begin
              let u = Bitset.copy a.Isa.Custom_inst.nodes in
              Bitset.union_into u b.Isa.Custom_inst.nodes;
              if Bitset.cardinal u <= params.max_size && Ir.Dfg.is_connected dfg u
              then begin
                match Bitset.elements u with
                | [] -> ()
                | v :: _ ->
                  let rest = Bitset.copy u in
                  Bitset.clear rest v;
                  (match hull (if Bitset.is_empty rest then u else rest) v with
                   | Some h when Bitset.cardinal h <= params.max_size ->
                     ignore (evaluate h)
                   | Some _ | None -> ())
              end
            end)
          pool)
      pool;
    Hashtbl.fold (fun _ ci acc -> ci :: acc) found [] |> List.sort by_quality
end

(* ---------------------------------------------------------------- *)
(* Chapters 6 and 7 before the shared knapsack kernel                *)
(* ---------------------------------------------------------------- *)

module Reconfig_ref = struct
  (* Algorithm 7: group-knapsack DP over the area budget — each loop picks
     exactly one version; maximise total gain. *)
  let spatial_select ~loops ~area =
    if area < 0 then invalid_arg "spatial_select: negative area";
    let areas =
      List.concat_map
        (fun (l : Reconfig.Problem.hot_loop) ->
          Array.to_list l.versions
          |> List.filter_map (fun (v : Reconfig.Problem.version) ->
                 if v.area > 0 then Some v.area else None))
        loops
    in
    let delta = max 1 (Util.Numeric.gcd_list (area :: areas)) in
    let cells = (area / delta) + 1 in
    let best = Array.make cells 0 in
    let choice = Array.make cells [] in
    List.iter
      (fun (l : Reconfig.Problem.hot_loop) ->
        let next = Array.copy best in
        let next_choice = Array.map (fun c -> (l.name, 0) :: c) choice in
        for cell = 0 to cells - 1 do
          Array.iteri
            (fun j (v : Reconfig.Problem.version) ->
              if j > 0 && v.area <= cell * delta then begin
                let from = cell - (v.area + delta - 1) / delta in
                let g = best.(from) + v.gain in
                if g > next.(cell) then begin
                  next.(cell) <- g;
                  next_choice.(cell) <- (l.name, j) :: choice.(from)
                end
              end)
            l.versions
        done;
        Array.blit next 0 best 0 cells;
        Array.blit next_choice 0 choice 0 cells)
      loops;
    List.rev choice.(cells - 1)

  let rcg (t : Reconfig.Problem.t) ~keep ~weight_of =
    let kept =
      List.filter (fun (l : Reconfig.Problem.hot_loop) -> keep l.name) t.loops
      |> List.map (fun (l : Reconfig.Problem.hot_loop) -> l.name)
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
     fall back to version 0 leave the configuration. *)
  let local_spatial (t : Reconfig.Problem.t) groups =
    let version_of = ref [] and config_of = ref [] in
    let seen = Hashtbl.create 16 in
    List.iteri
      (fun cid names ->
        let loops = List.map (Reconfig.Problem.find_loop t) names in
        List.iter
          (fun (name, j) ->
            Hashtbl.replace seen name ();
            version_of := (name, j) :: !version_of;
            if j > 0 then config_of := (name, cid) :: !config_of)
          (spatial_select ~loops ~area:t.max_area))
      groups;
    (* loops not in any group run in software *)
    List.iter
      (fun (l : Reconfig.Problem.hot_loop) ->
        if not (Hashtbl.mem seen l.name) then
          version_of := (l.name, 0) :: !version_of)
      t.loops;
    { Reconfig.Problem.version_of = !version_of; config_of = !config_of }

  let groups_of_assignment names assignment k =
    List.init k (fun c ->
        Array.to_list names
        |> List.filteri (fun i _ -> assignment.(i) = c))
    |> List.filter (fun g -> g <> [])

  let iterative ?(seed = 1) ?(imbalances = [ 0.25; 1.0; 3.0 ]) (t : Reconfig.Problem.t) =
    let n = List.length t.loops in
    let best = ref (Reconfig.Problem.software_placement t) in
    let best_gain = ref (Reconfig.Problem.net_gain t !best) in
    let consider placement =
      if Reconfig.Problem.feasible t placement then begin
        let g = Reconfig.Problem.net_gain t placement in
        if g > !best_gain then begin
          best := placement;
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
    for k = 1 to max 1 n do
      (* Phase 1: global spatial partitioning over a virtual area k·MaxA. *)
      let global = spatial_select ~loops:t.loops ~area:(k * t.max_area) in
      let hw = List.filter (fun (_, j) -> j > 0) global in
      (* Phase 2/3 with the CIS selection. *)
      (if hw <> [] then begin
         let keep name = List.mem_assoc name hw in
         let weight_of name =
           let l = Reconfig.Problem.find_loop t name in
           l.versions.(List.assoc name hw).area
         in
         let names, graph = rcg t ~keep ~weight_of in
         let k' = min k (Array.length names) in
         List.iter
           (fun (seed, imbalance) ->
             let r = Partition.Kway.partition ~imbalance ~seed ~k:k' graph in
             consider
               (local_spatial t
                  (groups_of_assignment names r.Partition.Kway.assignment k')))
           portfolio
       end);
      (* Phase 2/3 ignoring the CIS selection: unit weights, all loops. *)
      let names, graph = rcg t ~keep:(fun _ -> true) ~weight_of:(fun _ -> 1) in
      if Array.length names > 0 then begin
        let k' = min k (Array.length names) in
        List.iter
          (fun (seed, imbalance) ->
            let r = Partition.Kway.partition ~imbalance ~seed ~k:k' graph in
            consider
              (local_spatial t
                 (groups_of_assignment names r.Partition.Kway.assignment k')))
          portfolio
      end
    done;
    !best

  (* Algorithm 8. *)
  let greedy (t : Reconfig.Problem.t) =
    let committed = ref [] (* (name, version, config) *) in
    let current = ref [] (* (name, version) of the configuration being built *)
    and current_id = ref 0 in
    let selected name =
      List.exists (fun (n, _, _) -> n = name) !committed
      || List.mem_assoc name !current
    in
    let current_area () =
      Util.Numeric.sum_by
        (fun (name, j) -> (Reconfig.Problem.find_loop t name).versions.(j).area)
        !current
    in
    let reconfigs_with extra =
      let config_of name =
        match List.find_opt (fun (n, _, _) -> n = name) !committed with
        | Some (_, _, c) -> Some c
        | None ->
          if List.mem_assoc name !current then Some !current_id
          else if extra = Some name then Some !current_id
          else None
      in
      Ir.Trace.reconfigurations ~config_of t.trace
    in
    let finished = ref false in
    while not !finished do
      let base_reconfigs = reconfigs_with None in
      let best = ref None in
      List.iter
        (fun (l : Reconfig.Problem.hot_loop) ->
          if not (selected l.name) then begin
            let extra_cost =
              (reconfigs_with (Some l.name) - base_reconfigs) * t.reconfig_cost
            in
            Array.iteri
              (fun j (v : Reconfig.Problem.version) ->
                if j > 0 && v.area <= t.max_area - current_area () then begin
                  let expected = v.gain - extra_cost in
                  if expected > 0 then
                    match !best with
                    | Some (bg, _, _) when bg >= expected -> ()
                    | Some _ | None -> best := Some (expected, l.name, j)
                end)
              l.versions
          end)
        t.loops;
      match !best with
      | Some (_, name, j) -> current := (name, j) :: !current
      | None ->
        if !current <> [] then begin
          committed :=
            !committed @ List.map (fun (n, j) -> (n, j, !current_id)) !current;
          current := [];
          incr current_id
        end
        else finished := true
    done;
    let version_of =
      List.map
        (fun (l : Reconfig.Problem.hot_loop) ->
          match List.find_opt (fun (n, _, _) -> n = l.name) !committed with
          | Some (_, j, _) -> (l.name, j)
          | None -> (l.name, 0))
        t.loops
    in
    let config_of = List.map (fun (n, _, c) -> (n, c)) !committed in
    { Reconfig.Problem.version_of; config_of }

  (* Set-partition enumeration (restricted-growth strings). *)
  let exhaustive ?(max_partitions = 500_000) (t : Reconfig.Problem.t) =
    let names = Array.of_list (List.map (fun (l : Reconfig.Problem.hot_loop) -> l.name) t.loops) in
    let n = Array.length names in
    (* Bell number check against the cap. *)
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
    in
    if bell n > float_of_int max_partitions then None
    else begin
      let best = ref (Reconfig.Problem.software_placement t) in
      let best_gain = ref (Reconfig.Problem.net_gain t !best) in
      let assignment = Array.make n 0 in
      (* The same loop group recurs in many set partitions; memoise its
         per-configuration version selection. *)
      let memo = Hashtbl.create 4096 in
      let select_versions group =
        let key = String.concat "|" group in
        match Hashtbl.find_opt memo key with
        | Some sel -> sel
        | None ->
          let loops = List.map (Reconfig.Problem.find_loop t) group in
          let sel = spatial_select ~loops ~area:t.max_area in
          Hashtbl.add memo key sel;
          sel
      in
      let local_spatial_memo groups =
        let version_of = ref [] and config_of = ref [] in
        List.iteri
          (fun cid group ->
            List.iter
              (fun (name, j) ->
                version_of := (name, j) :: !version_of;
                if j > 0 then config_of := (name, cid) :: !config_of)
              (select_versions group))
          groups;
        { Reconfig.Problem.version_of = !version_of; config_of = !config_of }
      in
      let rec enumerate i max_used =
        if i = n then begin
          let k = max_used + 1 in
          let groups = groups_of_assignment names assignment k in
          let placement = local_spatial_memo groups in
          if Reconfig.Problem.feasible t placement then begin
            let g = Reconfig.Problem.net_gain t placement in
            if g > !best_gain then begin
              best := placement;
              best_gain := g
            end
          end
        end
        else
          for c = 0 to min (max_used + 1) (n - 1) do
            assignment.(i) <- c;
            enumerate (i + 1) (max max_used c)
          done
      in
      if n > 0 then enumerate 0 (-1);
      Some !best
    end
end

module Rtreconfig_ref = struct
  (* Group knapsack over a shared area budget: pick one version per task
     minimising total utilization; [reload] cycles are added to any
     hardware-mapped task's job. *)
  let min_utilization_versions ~tasks ~area ~reload =
    let areas =
      List.concat_map
        (fun (tk : Rtreconfig.Model.task) ->
          Array.to_list tk.versions
          |> List.filter_map (fun (v : Rtreconfig.Model.version) ->
                 if v.area > 0 then Some v.area else None))
        tasks
    in
    let delta = max 1 (Util.Numeric.gcd_list (area :: areas)) in
    let cells = (area / delta) + 1 in
    let best = Array.make cells 0. in
    let choice : (string * int) list array = Array.make cells [] in
    List.iter
      (fun (tk : Rtreconfig.Model.task) ->
        let base = Array.copy best in
        let base_choice = Array.copy choice in
        for cell = 0 to cells - 1 do
          best.(cell) <- base.(cell);
          choice.(cell) <- (tk.name, 0) :: base_choice.(cell)
        done;
        for cell = 0 to cells - 1 do
          Array.iteri
            (fun j (v : Rtreconfig.Model.version) ->
              if j > 0 && v.area <= cell * delta then begin
                let from = cell - Util.Numeric.ceil_div v.area delta in
                let benefit =
                  float_of_int (v.gain - reload tk) /. float_of_int tk.period
                in
                let total = base.(from) +. benefit in
                if total > best.(cell) then begin
                  best.(cell) <- total;
                  choice.(cell) <- (tk.name, j) :: base_choice.(from)
                end
              end)
            tk.versions
        done)
      tasks;
    choice.(cells - 1)

  let placement_of_versions versions ~group_of =
    { Rtreconfig.Model.version_of = versions;
      config_of =
        List.filter_map
          (fun (name, j) -> if j > 0 then Some (name, group_of name) else None)
          versions }

  let static (t : Rtreconfig.Model.t) =
    let versions =
      min_utilization_versions ~tasks:t.tasks ~area:t.max_area ~reload:(fun _ -> 0)
    in
    placement_of_versions versions ~group_of:(fun _ -> 0)

  let optimal ?(max_nodes = 2_000_000) (t : Rtreconfig.Model.t) =
    let tasks =
      Array.of_list
        (List.sort (fun (a : Rtreconfig.Model.task) b -> compare a.period b.period) t.tasks)
    in
    let n = Array.length tasks in
    let best_u = ref infinity and best = ref (static t) in
    (let u0 = Rtreconfig.Model.utilization t !best in
     best_u := u0);
    let version_idx = Array.make n 0 in
    let group_idx = Array.make n (-1) in
    let group_area = Array.make (max 1 n) 0 in
    let nodes = ref 0 in
    (* optimistic bound: assigned tasks at chosen gains without reloads,
       remaining tasks at their best gains without reloads *)
    let suffix_best = Array.make (n + 1) 0. in
    for i = n - 1 downto 0 do
      let tk = tasks.(i) in
      let best_gain =
        Array.fold_left (fun acc (v : Rtreconfig.Model.version) -> max acc v.gain) 0 tk.versions
      in
      suffix_best.(i) <-
        suffix_best.(i + 1)
        +. (float_of_int (tk.wcet - best_gain) /. float_of_int tk.period)
    done;
    let rec search i partial_u max_group =
      incr nodes;
      if !nodes < max_nodes then begin
        if i = n then begin
          let placement =
            placement_of_versions
              (Array.to_list (Array.mapi (fun k j -> (tasks.(k).Rtreconfig.Model.name, j)) version_idx))
              ~group_of:(fun name ->
                let rec find k = if tasks.(k).Rtreconfig.Model.name = name then group_idx.(k) else find (k + 1) in
                find 0)
          in
          let u = Rtreconfig.Model.utilization t placement in
          if u < !best_u then begin
            best_u := u;
            best := placement
          end
        end
        else if partial_u +. suffix_best.(i) < !best_u then begin
          let tk = tasks.(i) in
          (* software option *)
          version_idx.(i) <- 0;
          group_idx.(i) <- -1;
          search (i + 1) (partial_u +. (float_of_int tk.wcet /. float_of_int tk.period)) max_group;
          (* hardware options: version j in group g (canonical numbering) *)
          Array.iteri
            (fun j (v : Rtreconfig.Model.version) ->
              if j > 0 then
                for g = 0 to min (max_group + 1) (n - 1) do
                  if group_area.(g) + v.area <= t.max_area then begin
                    version_idx.(i) <- j;
                    group_idx.(i) <- g;
                    group_area.(g) <- group_area.(g) + v.area;
                    let contribution =
                      float_of_int (tk.wcet - v.gain) /. float_of_int tk.period
                    in
                    search (i + 1) (partial_u +. contribution) (max max_group g);
                    group_area.(g) <- group_area.(g) - v.area
                  end
                done)
            tk.versions;
          version_idx.(i) <- 0;
          group_idx.(i) <- -1
        end
      end
    in
    search 0 0. (-1);
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

  let dp (t : Rtreconfig.Model.t) =
    let best = ref (static t) in
    let best_u = ref (Rtreconfig.Model.utilization t !best) in
    let consider p =
      if Rtreconfig.Model.feasible t p then begin
        let u = Rtreconfig.Model.utilization t p in
        if u < !best_u then begin
          best := p;
          best_u := u
        end
      end
    in
    let tasks =
      Array.of_list
        (List.sort (fun (a : Rtreconfig.Model.task) b -> compare a.period b.period) t.tasks)
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
                let reload (tk : Rtreconfig.Model.task) =
                  if List.length runs = 1 then 0
                  else begin
                    let i =
                      let rec find k = if tasks.(k).Rtreconfig.Model.name = tk.name then k else find (k + 1) in
                      find 0
                    in
                    let own = group_of_index i in
                    let preempts = ref 0 in
                    Array.iteri
                      (fun j (other : Rtreconfig.Model.task) ->
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
            let rec find k = if tasks.(k).Rtreconfig.Model.name = name then k else find (k + 1) in
            group_of_index (find 0)
          in
          consider (placement_of_versions pass1 ~group_of:group_of_name);
          consider (placement_of_versions pass2 ~group_of:group_of_name))
        (contiguous_partitions n (min n max_groups));
    !best
end

(* MLGP as it stood before the quotient-graph cycle test and the cached
   partition scores: Kahn's algorithm over the whole contracted DFG for
   every candidate merge and move, and a fresh evaluation of every set
   each time it is scored. *)
module Mlgp_ref = struct
  (* Clusters are disjoint node sets.  Adjacency between clusters is
     direct-edge adjacency between their member nodes. *)

  let ratio dfg set =
    if Bitset.is_empty set then 0.
    else
      let ci = Isa.Custom_inst.make_unchecked dfg set in
      let area = max 1 ci.Isa.Custom_inst.area in
      float_of_int (Isa.Custom_inst.gain ci) /. float_of_int area

  let legal ?constraints dfg set =
    Bitset.is_empty set || Isa.Custom_inst.feasible ?constraints dfg set

  (* Gain a partition will actually contribute once emitted: partitions
     with non-positive gain are left in software. *)
  let emittable_gain dfg set =
    if Bitset.is_empty set then 0
    else max 0 (Isa.Custom_inst.gain (Isa.Custom_inst.make_unchecked dfg set))

  (* Contracting the clusters must leave the dependence graph acyclic,
     otherwise the partitions cannot all be fused simultaneously (the
     joint-schedulability hazard Codegen.sanitize guards against).  The
     check contracts every node through [macro_of] (nodes outside any
     cluster are their own macros) and runs Kahn's algorithm. *)
  let contraction_acyclic dfg ~macro_of ~n_macros =
    let n = Ir.Dfg.node_count dfg in
    let size = n_macros + n in
    let id v = match macro_of v with -1 -> n_macros + v | c -> c in
    let indegree = Array.make size 0 in
    let successors = Array.make size [] in
    let exists = Array.make size false in
    for v = 0 to n - 1 do
      exists.(id v) <- true;
      List.iter
        (fun s ->
          let a = id v and b = id s in
          if a <> b then begin
            successors.(a) <- b :: successors.(a);
            indegree.(b) <- indegree.(b) + 1
          end)
        (Ir.Dfg.succs dfg v)
    done;
    let ready = Queue.create () in
    let total = ref 0 in
    for m = 0 to size - 1 do
      if exists.(m) then begin
        incr total;
        if indegree.(m) = 0 then Queue.push m ready
      end
    done;
    let emitted = ref 0 in
    while not (Queue.is_empty ready) do
      let m = Queue.pop ready in
      incr emitted;
      List.iter
        (fun s ->
          indegree.(s) <- indegree.(s) - 1;
          if indegree.(s) = 0 then Queue.push s ready)
        successors.(m);
      successors.(m) <- []
    done;
    !emitted = !total

  (* Cluster-level adjacency for the current cluster list. *)
  let cluster_neighbors dfg clusters cluster_of set =
    let out = ref [] in
    Bitset.iter
      (fun v ->
        let consider u =
          match cluster_of.(u) with
          | -1 -> ()
          | c ->
            if (not (Bitset.mem set u)) && not (List.mem c !out) then out := c :: !out
        in
        List.iter consider (Ir.Dfg.preds dfg v);
        List.iter consider (Ir.Dfg.succs dfg v))
      set;
    ignore clusters;
    !out

  let rebuild_cluster_of n clusters =
    let cluster_of = Array.make n (-1) in
    Array.iteri
      (fun i set -> match set with
         | Some s -> Bitset.iter (fun v -> cluster_of.(v) <- i) s
         | None -> ())
      clusters;
    cluster_of

  (* One coarsening pass: visit clusters in random order and merge each
     unconsumed cluster with its best legal neighbour.  A cluster that
     found no partner stays available as a merge target for clusters
     visited later (consumed is set only by an actual merge). *)
  let coarsen_pass ?constraints dfg prng clusters =
    let n = Ir.Dfg.node_count dfg in
    let live = Array.map (fun c -> Some c) clusters in
    let cluster_of = rebuild_cluster_of n live in
    let order = Array.init (Array.length clusters) (fun i -> i) in
    Util.Prng.shuffle prng order;
    let consumed = Array.make (Array.length clusters) false in
    let merged = ref false in
    Array.iter
      (fun i ->
        if not consumed.(i) then
          match live.(i) with
          | None -> ()
          | Some set ->
            let candidates =
              cluster_neighbors dfg live cluster_of set
              |> List.filter (fun j -> j <> i && not consumed.(j))
            in
            let best = ref None in
            List.iter
              (fun j ->
                match live.(j) with
                | None -> ()
                | Some other ->
                  let union = Bitset.copy set in
                  Bitset.union_into union other;
                  if
                    legal ?constraints dfg union
                    && contraction_acyclic dfg
                         ~macro_of:(fun v ->
                           let c = cluster_of.(v) in
                           if c = j then i else c)
                         ~n_macros:(Array.length clusters)
                  then begin
                    let r = ratio dfg union in
                    match !best with
                    | Some (br, _, _) when br >= r -> ()
                    | Some _ | None -> best := Some (r, j, union)
                  end)
              candidates;
            (match !best with
             | Some (_, j, union) ->
               consumed.(i) <- true;
               consumed.(j) <- true;
               live.(i) <- Some union;
               live.(j) <- None;
               Bitset.iter (fun v -> cluster_of.(v) <- i) union;
               merged := true
             | None -> ()))
      order;
    let next =
      Array.to_list live |> List.filter_map (fun c -> c) |> Array.of_list
    in
    (next, !merged)

  (* Refinement at one level: move boundary units between partitions when
     the summed gain/area ratio improves and both partitions stay legal
     (Algorithm 5, without the directional input/output repair). *)
  let refine_level ?constraints dfg prng units assignment partitions =
    let n_units = Array.length units in
    let order = Array.init n_units (fun i -> i) in
    Util.Prng.shuffle prng order;
    let unit_of_node = Array.make (Ir.Dfg.node_count dfg) (-1) in
    Array.iteri (fun i u -> Bitset.iter (fun v -> unit_of_node.(v) <- i) u) units;
    let part_of_node = Array.make (Ir.Dfg.node_count dfg) (-1) in
    Array.iteri (fun p set -> Bitset.iter (fun v -> part_of_node.(v) <- p) set) partitions;
    let changed = ref false in
    Array.iter
      (fun i ->
        let unit = units.(i) in
        let src = assignment.(i) in
        (* neighbour partitions of this unit *)
        let neighbour_parts = ref [] in
        Bitset.iter
          (fun v ->
            let consider u =
              match unit_of_node.(u) with
              | -1 -> ()
              | j ->
                let p = assignment.(j) in
                if p <> src && not (List.mem p !neighbour_parts) then
                  neighbour_parts := p :: !neighbour_parts
            in
            List.iter consider (Ir.Dfg.preds dfg v);
            List.iter consider (Ir.Dfg.succs dfg v))
          unit;
        if !neighbour_parts <> [] then begin
          let src_without = Bitset.copy partitions.(src) in
          Bitset.diff_into src_without unit;
          if legal ?constraints dfg src_without then begin
            let base_src = ratio dfg partitions.(src) in
            let base_src_gain = emittable_gain dfg partitions.(src) in
            let best = ref None in
            List.iter
              (fun p ->
                let dst_with = Bitset.copy partitions.(p) in
                Bitset.union_into dst_with unit;
                if legal ?constraints dfg dst_with then begin
                  let improvement =
                    ratio dfg dst_with -. ratio dfg partitions.(p)
                    +. ratio dfg src_without -. base_src
                  in
                  (* the ratio objective (Algorithm 5) chooses the move,
                     but a move must never lose emittable cycles — chasing
                     small dense partitions can wreck absolute gain *)
                  let gain_delta =
                    emittable_gain dfg dst_with + emittable_gain dfg src_without
                    - emittable_gain dfg partitions.(p) - base_src_gain
                  in
                  if
                    improvement > 1e-12 && gain_delta >= 0
                    && contraction_acyclic dfg
                         ~macro_of:(fun v ->
                           if Bitset.mem unit v then p else part_of_node.(v))
                         ~n_macros:(Array.length partitions)
                  then
                    match !best with
                    | Some (bi, _, _) when bi >= improvement -> ()
                    | Some _ | None -> best := Some (improvement, p, dst_with)
                end)
              !neighbour_parts;
            match !best with
            | Some (_, p, dst_with) ->
              partitions.(src) <- src_without;
              partitions.(p) <- dst_with;
              Bitset.iter (fun v -> part_of_node.(v) <- p) unit;
              assignment.(i) <- p;
              changed := true
            | None -> ()
          end
        end)
      order;
    !changed

  let partition_region ?constraints ?(seed = 17) ?(refine = true) dfg ~allowed =
    let prng = Util.Prng.create seed in
    let n = Ir.Dfg.node_count dfg in
    (* Level 0: singletons. *)
    let singletons =
      Bitset.fold (fun v acc -> Bitset.of_list n [ v ] :: acc) allowed []
      |> List.rev |> Array.of_list
    in
    if Array.length singletons = 0 then []
    else begin
      (* Coarsening, recording each level's clusters. *)
      let levels = ref [ singletons ] in
      let rec coarsen clusters =
        let next, progress = coarsen_pass ?constraints dfg prng clusters in
        if progress then begin
          levels := next :: !levels;
          coarsen next
        end
      in
      coarsen singletons;
      (* Initial partitioning: each coarsest cluster is a partition. *)
      let coarsest = List.hd !levels in
      let partitions = Array.map Bitset.copy coarsest in
      (* Uncoarsening: at each finer level the units are that level's
         clusters; their initial assignment is the partition that contains
         them. *)
      if refine then
      List.iter
        (fun units ->
          let part_of_node = Array.make n (-1) in
          Array.iteri
            (fun p set -> Bitset.iter (fun v -> part_of_node.(v) <- p) set)
            partitions;
          let assignment =
            Array.map
              (fun u ->
                match Bitset.elements u with
                | v :: _ -> part_of_node.(v)
                | [] -> 0)
              units
          in
          let rec fixpoint k =
            if k > 0 && refine_level ?constraints dfg prng units assignment partitions
            then fixpoint (k - 1)
          in
          fixpoint 3)
        (List.tl !levels);
      (* Emit non-empty partitions with positive gain; drop instructions
         that would make the block unschedulable (mutual dependences). *)
      Array.to_list partitions
      |> List.filter_map (fun set ->
             if Bitset.is_empty set then None
             else
               match Isa.Custom_inst.check ?constraints dfg set with
               | Ok ci when Isa.Custom_inst.gain ci > 0 -> Some ci
               | Ok _ | Error _ -> None)
      |> Ise.Codegen.sanitize dfg
      |> List.sort (fun a b ->
             compare (Isa.Custom_inst.gain b) (Isa.Custom_inst.gain a))
    end

  let cover_dfg ?constraints ?seed ?refine dfg =
    Ir.Region.of_dfg dfg
    |> List.concat_map (fun r ->
           partition_region ?constraints ?seed ?refine dfg ~allowed:r.Ir.Region.members)
end

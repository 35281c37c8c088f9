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

type option_ = { delta : float; cost : int }

type entity = option_ array

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

let () =
  Obs.Metrics.declare
    ~help:"Group-knapsack cells scanned by the Chapter 4 solvers, by entry point"
    Obs.Metrics.Counter "pareto.dp_cells"

(* Group knapsack: one option per entity, maximise Σ delta subject to a
   per-option cost function and a cell count.  Leaves, per cost cell,
   the best delta and the true (untransformed) cost of a solution
   achieving it in [ws.best] / [ws.true_cost], and returns [hi]: every
   cell past [hi] is unreachable, so readers scan [0, hi] only.

   The kernel allocates nothing per row.  Each row copies its entity's
   scaled costs, deltas and true costs once into unboxed [ws] buffers;
   [hi] grows by the row's largest scaled cost (capped at [cells]), and
   only that reachable prefix is reset and scanned; the two buffer
   pairs swap after each row.  Cells ascend and options keep entity
   order, and a later option replaces an earlier one only when strictly
   better, so the table is exactly the one a full-width DP computes.

   The guard is ticked once per entity, weighted by the row width
   (1 + cells, the cost model callers budget against), and an exhausted
   guard stops the fold between entities.  The prefix DP is still
   sound: every cell holds a choice over the processed entities only,
   and [normalise] gives each entity a zero option, so those partial
   solutions remain achievable — they are just possibly dominated by
   full ones. *)
type workspace = {
  mutable best : float array;
  mutable true_cost : int array;
  mutable next : float array;
  mutable next_cost : int array;
  (* the current row's options, unboxed: scaled cost, delta, true cost *)
  scaled : int array;
  deltas : float array;
  costs : int array;
  mutable scanned : int;  (** cells visited, for [pareto.dp_cells] *)
}

let workspace ~cells entities =
  let width = List.fold_left (fun acc e -> max acc (Array.length e)) 0 entities in
  { best = Array.make (cells + 1) neg_infinity;
    true_cost = Array.make (cells + 1) 0;
    next = Array.make (cells + 1) neg_infinity;
    next_cost = Array.make (cells + 1) 0;
    scaled = Array.make width 0;
    deltas = Array.make width 0.;
    costs = Array.make width 0;
    scanned = 0 }

let group_knapsack ?guard ws entities ~cells ~scaled_cost =
  ws.best.(0) <- 0.;
  ws.true_cost.(0) <- 0;
  let rec process hi = function
    | [] -> hi
    | (entity : entity) :: rest ->
      let row_ok =
        match guard with
        | None -> true
        | Some g -> Engine.Guard.tick ~cost:(1 + cells) g
      in
      if not row_ok then hi
      else begin
        let scaled = ws.scaled and deltas = ws.deltas and costs = ws.costs in
        let width = Array.length entity in
        let row_max = ref 0 in
        for j = 0 to width - 1 do
          let o = entity.(j) in
          let s = scaled_cost o in
          scaled.(j) <- s;
          deltas.(j) <- o.delta;
          costs.(j) <- o.cost;
          if s > !row_max then row_max := s
        done;
        let reach = if !row_max >= cells - hi then cells else hi + !row_max in
        let best = ws.best and true_cost = ws.true_cost in
        let next = ws.next and next_cost = ws.next_cost in
        Array.fill next 0 (reach + 1) neg_infinity;
        for cell = 0 to hi do
          let b = best.(cell) in
          if b > neg_infinity then begin
            let tc = true_cost.(cell) in
            for j = 0 to width - 1 do
              let c = cell + scaled.(j) in
              if c <= cells then begin
                let d = b +. deltas.(j) in
                if d > next.(c) then begin
                  next.(c) <- d;
                  next_cost.(c) <- tc + costs.(j)
                end
              end
            done
          end
        done;
        ws.scanned <- ws.scanned + hi + 1;
        ws.best <- next;
        ws.true_cost <- next_cost;
        ws.next <- best;
        ws.next_cost <- true_cost;
        process reach rest
      end
  in
  process 0 entities

(* The unscaled DP (cost = cell index) in a fresh workspace. *)
let exact_dp ?guard entities ~cells =
  let ws = workspace ~cells entities in
  (ws, group_knapsack ?guard ws entities ~cells ~scaled_cost:(fun o -> o.cost))

let count_cells ~solver ws =
  Obs.Metrics.inc ~labels:[ ("solver", solver) ] ~by:(float_of_int ws.scanned)
    "pareto.dp_cells"

let exact_front_guarded ?guard ~base entities =
  Engine.Trace.with_span "pareto.exact" @@ fun () ->
  let guard =
    match guard with Some g -> g | None -> Engine.Guard.default ()
  in
  let entities = normalise entities in
  let total =
    Util.Numeric.sum_by
      (fun e -> Array.fold_left (fun acc o -> max acc o.cost) 0 e)
      entities
  in
  let ws, hi = exact_dp ~guard entities ~cells:total in
  count_cells ~solver:"exact" ws;
  let points = ref [] in
  for cost = 0 to hi do
    let d = ws.best.(cost) in
    if d > neg_infinity then
      points := { Util.Pareto_front.cost; value = base -. d } :: !points
  done;
  (Util.Pareto_front.front !points, Engine.Guard.status guard)

let exact_front ~base entities = fst (exact_front_guarded ~base entities)

let count_options entities =
  Util.Numeric.sum_by Array.length entities

(* One scaled DP: costs mapped by a'= ⌈a·r/b⌉, capped at r cells. *)
let scaled_best ws ~r ~bound entities =
  let bound = max 1 bound in
  group_knapsack ws entities ~cells:r ~scaled_cost:(fun o ->
      Util.Numeric.ceil_div (o.cost * r) bound)

let gap ~eps ~cost_bound ~value_bound ~base entities =
  if eps <= 0. then invalid_arg "Mo_select.gap: eps must be positive";
  Engine.Trace.with_span "pareto.gap" @@ fun () ->
  let entities = normalise entities in
  if cost_bound < 0 then None
  else begin
    (* A zero bound leaves no room to scale: only zero-cost options
       fit, so solve that case exactly (the all-zero selection is
       always among its answers). *)
    let ws, hi =
      if cost_bound = 0 then exact_dp entities ~cells:0
      else
        let n = max 1 (count_options entities) in
        let r = int_of_float (ceil (float_of_int n /. eps)) in
        let ws = workspace ~cells:r entities in
        (ws, scaled_best ws ~r ~bound:cost_bound entities)
    in
    count_cells ~solver:"gap" ws;
    let found = ref None in
    for cell = 0 to hi do
      let d = ws.best.(cell) in
      if d > neg_infinity && base -. d <= value_bound +. 1e-9 then
        let candidate =
          { Util.Pareto_front.cost = ws.true_cost.(cell); value = base -. d }
        in
        match !found with
        | None -> found := Some candidate
        | Some cur ->
          if
            candidate.value < cur.value
            || (candidate.value = cur.value && candidate.cost < cur.cost)
          then found := Some candidate
    done;
    !found
  end

(* The scaled DP's width r = ⌈n/ε'⌉ with ε' = √(1+ε) − 1, as a float so
   that a width past any array length still compares. *)
let approx_width ~eps entities =
  let n = max 1 (count_options (List.map with_zero_option entities)) in
  ceil (float_of_int n /. (sqrt (1. +. eps) -. 1.))

let approx_eps_supported ~eps entities =
  eps > 0. && approx_width ~eps entities < float_of_int Sys.max_array_length

let approx_front ?guard ~eps ~base entities =
  if eps <= 0. then invalid_arg "Mo_select.approx_front: eps must be positive";
  Engine.Trace.with_span "pareto.approx" @@ fun () ->
  let guard =
    match guard with Some g -> g | None -> Engine.Guard.default ()
  in
  let entities = normalise entities in
  if not (approx_eps_supported ~eps entities) then
    invalid_arg "Mo_select.approx_front: eps too small";
  let eps' = sqrt (1. +. eps) -. 1. in
  let n = max 1 (count_options entities) in
  let r = int_of_float (approx_width ~eps entities) in
  let row_fuel = List.length entities * (1 + r) in
  let max_cost =
    List.fold_left
      (fun acc e -> Array.fold_left (fun acc o -> max acc o.cost) acc e)
      0 entities
  in
  let upper = max 1 (n * max_cost) in
  (* One workspace for every coordinate, made once the guard has paid
     for the first one. *)
  let ws = lazy (workspace ~cells:r entities) in
  let points = ref [ { Util.Pareto_front.cost = 0; value = base } ] in
  (* Best value achievable at one coordinate; [false] once the guard
     refuses to pay for it. *)
  let at_coordinate b =
    Engine.Guard.tick ~cost:row_fuel guard
    && begin
      let ws = Lazy.force ws in
      let hi = scaled_best ws ~r ~bound:b entities in
      let best_point = ref None in
      for cell = 0 to hi do
        let d = ws.best.(cell) in
        if d > neg_infinity then
          let p = { Util.Pareto_front.cost = ws.true_cost.(cell); value = base -. d } in
          match !best_point with
          | None -> best_point := Some p
          | Some cur -> if p.value < cur.value then best_point := Some p
      done;
      (match !best_point with
       | Some p -> points := p :: !points
       | None -> ());
      true
    end
  in
  (* Geometric grid of cost coordinates with ratio (1 + ε'), ending at
     [upper]: ⌈b⌉ never decreases along the grid, so skipping repeats
     visits each coordinate once, in ascending order. *)
  let ratio = 1. +. eps' in
  let rec walk b prev =
    let last = b > float_of_int upper in
    let c = if last then upper else int_of_float (ceil b) in
    if (c = prev || at_coordinate c) && not last then walk (b *. ratio) c
  in
  walk 1. 0;
  if Lazy.is_val ws then count_cells ~solver:"approx" (Lazy.force ws);
  Util.Pareto_front.front !points

let solve_at_cost ~cost ~base entities =
  let entities = normalise entities in
  let ws, hi = exact_dp entities ~cells:(max 0 cost) in
  let d = ref neg_infinity in
  for cell = 0 to hi do
    d := Float.max !d ws.best.(cell)
  done;
  base -. !d

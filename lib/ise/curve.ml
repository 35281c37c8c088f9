type params = {
  constraints : Isa.Hw_model.constraints;
  budget : Enumerate.budget;
  hot_threshold : float;
  sweep_points : int;
  generator : Isegen.choice;
  isegen : Isegen.params;
  hw : Isa.Hw_model.backend;
}

let default =
  { constraints = Isa.Hw_model.default_constraints;
    budget = Enumerate.default_budget;
    hot_threshold = 0.01;
    sweep_points = 24;
    generator = Isegen.Exhaustive;
    isegen = Isegen.default_params;
    hw = Isa.Hw_model.uniform }

let small = { default with budget = Enumerate.small_budget }

let params_key p =
  Printf.sprintf "io=%d:%d;budget=%d:%d:%d;hot=%h;sweep=%d;gen=%s;ise=%s;hw=%s"
    p.constraints.Isa.Hw_model.max_inputs
    p.constraints.Isa.Hw_model.max_outputs
    p.budget.Enumerate.max_size p.budget.Enumerate.max_explored
    p.budget.Enumerate.max_candidates p.hot_threshold p.sweep_points
    (Isegen.choice_to_string p.generator)
    (Isegen.params_key p.isegen) p.hw.Isa.Hw_model.name

let profile_cycles profile =
  Util.Numeric.sum_byf
    (fun (b, freq) -> freq *. float_of_int (Ir.Cfg.block_cycles b))
    profile

let base_cycles cfg =
  int_of_float (Float.round (profile_cycles (Ir.Cfg.profile cfg)))

(* Work items are per hot block / per area budget — fine enough grain
   for the pool's stealing to balance, while an omitted [?pool] (or a
   1-wide pool) runs the exact sequential List.map. Either way the
   items are solved independently and reassembled in input order, so
   the curve is bit-identical across any jobs count. *)
let pool_map pool f xs =
  match pool with
  | Some pool -> Engine.Parallel.Pool.map pool f xs
  | None -> List.map f xs

let candidates ?pool ?(params = default) cfg =
  Engine.Trace.with_span "curve.candidates" @@ fun () ->
  Obs.Metrics.time_s "curve.candidates" @@ fun () ->
  let profile = Ir.Cfg.profile cfg in
  let total = profile_cycles profile in
  let hot =
    List.filteri (fun _ (b, freq) ->
        freq *. float_of_int (Ir.Cfg.block_cycles b)
        >= params.hot_threshold *. total)
      profile
  in
  List.concat
    (pool_map pool
       (fun (block, (b, freq)) ->
         Select.candidates_of_block ~constraints:params.constraints
           ~budget:params.budget ~generator:params.generator
           ~isegen:params.isegen ~hw:params.hw ~block ~freq b.Ir.Cfg.body)
       (List.mapi (fun block bf -> (block, bf)) hot))

let generate ?pool ?(params = default) cfg =
  Engine.Trace.with_span "curve.generate"
    ~attrs:[ ("sweep_points", string_of_int params.sweep_points) ]
  @@ fun () ->
  Obs.Metrics.time_s "curve.generate" @@ fun () ->
  Obs.Metrics.time "curve.generate_s" @@ fun () ->
  let cands = candidates ?pool ~params cfg in
  let base = base_cycles cfg in
  let use_greedy = List.length cands > 22 in
  if use_greedy then Obs.Metrics.inc "curve.greedy_fallbacks";
  let select area_budget =
    if use_greedy then Select.greedy ~budget:area_budget cands
    else Select.branch_and_bound ~budget:area_budget cands
  in
  let unconstrained = select max_int in
  let max_area = Select.area_of unconstrained in
  let point i =
    let area_budget = max_area * i / params.sweep_points in
    let sel = select area_budget in
    let cycles = base - int_of_float (Float.round (Select.gain_of sel)) in
    { Isa.Config.area = Select.area_of sel; cycles = max 1 cycles }
  in
  let points =
    List.rev (pool_map pool point (List.init params.sweep_points (fun i -> i + 1)))
  in
  Obs.Metrics.inc ~labels:[ ("kernel", cfg.Ir.Cfg.name) ] "curve.curves_generated";
  Isa.Config.of_points ~base_cycles:base points

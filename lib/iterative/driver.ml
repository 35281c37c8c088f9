module Bitset = Util.Bitset

type task_input = { name : string; cfg : Ir.Cfg.t; period : int }

type iteration = { index : int; task : string; utilization : float; area : int }

type result = {
  utilization : float;
  schedulable : bool;
  iterations : iteration list;
  total_area : int;
  instruction_count : int;
}

type block_state = {
  regions : Ir.Region.t array;  (** heaviest first *)
  explored : bool array;
  mutable available : Bitset.t;
  mutable gain : int;  (** accepted cycles saved per block execution *)
}

type task_state = {
  input : task_input;
  blocks : (Ir.Cfg.block * block_state) list;
  mutable wcet : int;
  mutable active : bool;
}

let tasks_of_kernels ~u kernels =
  let n = List.length kernels in
  let share = u /. float_of_int n in
  List.map
    (fun (name, cfg) ->
      let wcet = Ir.Cfg.wcet cfg in
      let period = max 1 (int_of_float (Float.round (float_of_int wcet /. share))) in
      { name; cfg; period })
    kernels

let init_task input =
  let blocks =
    List.map
      (fun (b : Ir.Cfg.block) ->
        let regions = Array.of_list (Ir.Region.of_dfg b.body) in
        let n = Ir.Dfg.node_count b.body in
        let available = Bitset.create n in
        Array.iter
          (fun r -> Bitset.union_into available r.Ir.Region.members)
          regions;
        (b, { regions; explored = Array.map (fun _ -> false) regions; available;
              gain = 0 }))
      (Ir.Cfg.blocks input.cfg)
  in
  { input; blocks; wcet = Ir.Cfg.wcet input.cfg; active = true }

let state_of ts b = List.assq b ts.blocks

let cost_fn ts b =
  let st = state_of ts b in
  max 0 (Ir.Cfg.block_cycles b - st.gain)

let utilization_of tasks =
  Util.Numeric.sum_byf
    (fun ts -> float_of_int ts.wcet /. float_of_int ts.input.period)
    tasks

(* Disjoint cover of [allowed] by ISEGEN candidates: greedy by gain over
   the deterministic pool, skipping overlaps — the iterative-generator
   counterpart of one MLGP partition. *)
let isegen_partition_region ?seed ~isegen dfg ~allowed =
  let params =
    match seed with
    | None -> isegen
    | Some seed -> { isegen with Ise.Isegen.seed }
  in
  let pool = Ise.Isegen.generate ~params ~allowed dfg in
  let taken = Bitset.create (Ir.Dfg.node_count dfg) in
  List.filter
    (fun ci ->
      if Bitset.intersects taken ci.Isa.Custom_inst.nodes then false
      else begin
        Bitset.union_into taken ci.Isa.Custom_inst.nodes;
        true
      end)
    pool

(* Generate custom instructions for the heaviest unexplored regions of
   the block subsequence S until the WCET reduction reaches delta.
   Returns (cycles gained, area added, instructions added). *)
let generate_for_task ?seed ?(generator = Ise.Isegen.Exhaustive)
    ?(isegen = Ise.Isegen.default_params) ts s_blocks delta =
  let gained = ref 0 and area = ref 0 and count = ref 0 in
  (try
     List.iter
       (fun ((b : Ir.Cfg.block), freq) ->
         let st = state_of ts b in
         Array.iteri
           (fun ri region ->
             if !gained < delta && not (st.explored.(ri)) then begin
               st.explored.(ri) <- true;
               let allowed = Bitset.copy region.Ir.Region.members in
               Bitset.inter_into allowed st.available;
               if not (Bitset.is_empty allowed) then begin
                 let cis =
                   match generator with
                   | Ise.Isegen.Exhaustive ->
                     (* legacy flow: MLGP partitions the region *)
                     Mlgp.partition_region ?seed b.body ~allowed
                   | Ise.Isegen.Isegen | Ise.Isegen.Auto ->
                     isegen_partition_region ?seed ~isegen b.body ~allowed
                 in
                 List.iter
                   (fun ci ->
                     let g = Isa.Custom_inst.gain ci in
                     st.gain <- st.gain + g;
                     Bitset.diff_into st.available ci.Isa.Custom_inst.nodes;
                     gained := !gained + (g * freq);
                     area := !area + ci.Isa.Custom_inst.area;
                     incr count)
                   cis
               end
             end)
           st.regions;
         if !gained >= delta then raise Exit)
       s_blocks
   with Exit -> ());
  (!gained, !area, !count)

let run ?(target = 1.0) ?(coverage = 0.9) ?(max_iterations = 200) ?seed
    ?generator ?isegen inputs =
  Engine.Trace.with_span "iterative.driver" @@ fun () ->
  Obs.Metrics.time_s "iterative.driver" @@ fun () ->
  let tasks = List.map init_task inputs in
  let iterations = ref [] in
  let total_area = ref 0 and instruction_count = ref 0 in
  let index = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let u = utilization_of tasks in
    if u <= target || !index >= max_iterations then continue_ := false
    else begin
      match
        List.filter (fun ts -> ts.active) tasks
        |> List.sort (fun a b ->
               compare
                 (float_of_int b.wcet /. float_of_int b.input.period)
                 (float_of_int a.wcet /. float_of_int a.input.period))
      with
      | [] -> continue_ := false
      | ts :: _ ->
        incr index;
        let delta =
          max 1
            (int_of_float
               (ceil ((u -. target) *. float_of_int ts.input.period)))
        in
        (* The heaviest blocks on the current worst-case path, covering
           [coverage] of the WCET. *)
        let freqs = Ir.Cfg.wcet_frequencies_with ts.input.cfg ~cost:(cost_fn ts) in
        let weighted =
          List.map (fun (b, f) -> ((b, f), f * cost_fn ts b)) freqs
          |> List.sort (fun (_, w1) (_, w2) -> compare w2 w1)
        in
        let threshold = coverage *. float_of_int ts.wcet in
        let rec take acc sum = function
          | [] -> List.rev acc
          | ((bf, w) : (Ir.Cfg.block * int) * int) :: rest ->
            if float_of_int sum >= threshold then List.rev acc
            else take (bf :: acc) (sum + w) rest
        in
        let s_blocks = take [] 0 weighted in
        let gained, area, count =
          generate_for_task ?seed ?generator ?isegen ts s_blocks delta
        in
        if gained = 0 then ts.active <- false
        else begin
          ts.wcet <- Ir.Cfg.wcet_with ts.input.cfg ~cost:(cost_fn ts);
          total_area := !total_area + area;
          instruction_count := !instruction_count + count
        end;
        iterations :=
          { index = !index; task = ts.input.name;
            utilization = utilization_of tasks; area = !total_area }
          :: !iterations
    end
  done;
  let utilization = utilization_of tasks in
  { utilization;
    schedulable = utilization <= target;
    iterations = List.rev !iterations;
    total_area = !total_area;
    instruction_count = !instruction_count }

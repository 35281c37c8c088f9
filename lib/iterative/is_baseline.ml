module Bitset = Util.Bitset

let run ?constraints ?budget ?(generator = Ise.Isegen.Exhaustive)
    ?(isegen = Ise.Isegen.default_params) ?(max_instructions = 64)
    ?(on_step = fun _ -> ()) dfg =
  let n = Ir.Dfg.node_count dfg in
  let available =
    Bitset.of_list n (List.filter (Ir.Dfg.valid_node dfg) (Ir.Dfg.nodes dfg))
  in
  let best_cut () =
    match generator with
    | Ise.Isegen.Exhaustive ->
      Ise.Enumerate.best_single_cut ?constraints ?budget ~allowed:available dfg
    | Ise.Isegen.Isegen ->
      Ise.Isegen.best_cut ?constraints ~params:isegen ~allowed:available dfg
    | Ise.Isegen.Auto ->
      (* single-cut search over the remaining region: exhaustive while
         it stays exact, iterative once a cap saturates *)
      let cands, saturation =
        Ise.Enumerate.connected_full ?constraints ?budget ~allowed:available
          dfg
      in
      let pool =
        match saturation with
        | None -> cands
        | Some _ ->
          Obs.Metrics.inc "isegen.auto_switches";
          Ise.Isegen.generate ?constraints ~params:isegen ~allowed:available
            dfg
      in
      List.fold_left
        (fun best ci ->
          match best with
          | Some b when Isa.Custom_inst.gain b >= Isa.Custom_inst.gain ci ->
            best
          | _ -> Some ci)
        None pool
  in
  let rec iterate acc remaining =
    if remaining = 0 then List.rev acc
    else
      match best_cut () with
      | None -> List.rev acc
      | Some ci ->
        if Isa.Custom_inst.gain ci <= 0 then List.rev acc
        else begin
          Bitset.diff_into available ci.Isa.Custom_inst.nodes;
          on_step ci;
          iterate (ci :: acc) (remaining - 1)
        end
  in
  iterate [] max_instructions

module Bitset = Util.Bitset

type t = {
  nodes : Bitset.t;
  size : int;
  sw_cycles : int;
  hw_cycles : int;
  area : int;
  inputs : int;
  outputs : int;
}

let gain ci = ci.sw_cycles - ci.hw_cycles

type rejection =
  | Invalid_operation
  | Not_convex
  | Too_many_inputs of int
  | Too_many_outputs of int
  | Empty

let evaluate dfg nodes ~inputs ~outputs =
  { nodes;
    size = Bitset.cardinal nodes;
    sw_cycles = Ir.Dfg.sw_cycles_of_set dfg nodes;
    hw_cycles = Hw_model.set_hw_cycles dfg nodes;
    area = Hw_model.set_area dfg nodes;
    inputs;
    outputs }

let make_unchecked dfg nodes =
  evaluate dfg nodes ~inputs:(Ir.Dfg.input_count dfg nodes)
    ~outputs:(Ir.Dfg.output_count dfg nodes)

(* Admissibility has one definition: the port bounds and [well_formed].
   [feasible] tests the port bounds first, because a grown set that
   breaks them is the common case and each count stops at its bound;
   [check] diagnoses a rejection in its documented order. *)
let well_formed dfg nodes =
  (not (Bitset.is_empty nodes)) && Ir.Dfg.all_valid dfg nodes && Ir.Dfg.is_convex dfg nodes

let feasible ?(constraints = Hw_model.default_constraints) dfg nodes =
  Ir.Dfg.ports_within dfg ~max_inputs:constraints.Hw_model.max_inputs
    ~max_outputs:constraints.Hw_model.max_outputs nodes
  && well_formed dfg nodes

let check ?(constraints = Hw_model.default_constraints) dfg nodes =
  if feasible ~constraints dfg nodes then Ok (make_unchecked dfg nodes)
  else if Bitset.is_empty nodes then Error Empty
  else if not (Ir.Dfg.all_valid dfg nodes) then Error Invalid_operation
  else if not (Ir.Dfg.is_convex dfg nodes) then Error Not_convex
  else
    let inputs = Ir.Dfg.input_count dfg nodes in
    if inputs > constraints.Hw_model.max_inputs then Error (Too_many_inputs inputs)
    else Error (Too_many_outputs (Ir.Dfg.output_count dfg nodes))

let admissible ?(constraints = Hw_model.default_constraints) dfg ci =
  ci.inputs <= constraints.Hw_model.max_inputs
  && ci.outputs <= constraints.Hw_model.max_outputs
  && well_formed dfg ci.nodes

let pp_rejection fmt = function
  | Invalid_operation -> Format.pp_print_string fmt "contains an invalid operation"
  | Not_convex -> Format.pp_print_string fmt "not convex"
  | Too_many_inputs n -> Format.fprintf fmt "%d inputs exceed the port limit" n
  | Too_many_outputs n -> Format.fprintf fmt "%d outputs exceed the port limit" n
  | Empty -> Format.pp_print_string fmt "empty node set"

let make ?constraints dfg nodes =
  match check ?constraints dfg nodes with
  | Ok ci -> ci
  | Error r -> invalid_arg (Format.asprintf "Custom_inst.make: %a" pp_rejection r)

(* Structure (nodes, size, sw cost, port counts) is target-independent;
   only the hardware latency and silicon area move with the backend. *)
let evaluate_with backend dfg ci =
  { ci with
    hw_cycles = Hw_model.set_hw_cycles_with backend dfg ci.nodes;
    area = Hw_model.set_area_with backend dfg ci.nodes }

let overlaps a b = Bitset.intersects a.nodes b.nodes

let pp fmt ci =
  Format.fprintf fmt "CI{%d ops, sw=%d, hw=%d, gain=%d, area=%.1f adders, %d->%d}"
    ci.size ci.sw_cycles ci.hw_cycles (gain ci)
    (Hw_model.adders_of_units ci.area) ci.inputs ci.outputs

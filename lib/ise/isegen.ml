module Bitset = Util.Bitset

type choice = Exhaustive | Isegen | Auto

let choice_to_string = function
  | Exhaustive -> "exhaustive"
  | Isegen -> "isegen"
  | Auto -> "auto"

let all_choices = [ Exhaustive; Isegen; Auto ]

let choice_of_string s =
  List.find_opt
    (fun c -> choice_to_string c = String.lowercase_ascii s)
    all_choices

type params = {
  seed : int;
  restarts : int;
  max_moves : int;
  max_size : int;
  io_penalty : int;
  merge_pool : int;
}

let default_params =
  { seed = 1;
    restarts = 32;
    max_moves = 24;
    max_size = 14;
    io_penalty = 4;
    merge_pool = 24 }

let params_key p =
  Printf.sprintf "%d:%d:%d:%d:%d:%d" p.seed p.restarts p.max_moves p.max_size
    p.io_penalty p.merge_pool

(* The decimal node list: its string order breaks ties between equal
   scores and equal gains. *)
let key_of_set set = String.concat "," (List.map string_of_int (Bitset.elements set))

(* Valid neighbours (preds and succs) of the members, excluding members
   and nodes outside [allowed] — the grow frontier, in ascending node
   order for determinism.  [mark] is an all-clear scratch set of the
   DFG's capacity, left clear. *)
let frontier dfg allowed ~mark set =
  Bitset.iter
    (fun v ->
      let consider w =
        if Ir.Dfg.valid_node dfg w && (not (Bitset.mem set w)) && Bitset.mem allowed w
        then Bitset.set mark w
      in
      List.iter consider (Ir.Dfg.preds dfg v);
      List.iter consider (Ir.Dfg.succs dfg v))
    set;
  let out = Bitset.elements mark in
  List.iter (Bitset.clear mark) out;
  out

let generate ?guard ?(constraints = Isa.Hw_model.default_constraints)
    ?(params = default_params) ?allowed dfg =
  let guard = match guard with Some g -> g | None -> Engine.Guard.default () in
  let n = Ir.Dfg.node_count dfg in
  Engine.Trace.with_span "isegen.generate"
    ~attrs:[ ("nodes", string_of_int n) ]
  @@ fun () ->
  let allowed =
    match allowed with
    | Some a -> a
    | None -> Bitset.of_list n (List.init n (fun i -> i))
  in
  let usable = Bitset.create n in
  for v = 0 to n - 1 do
    if Ir.Dfg.valid_node dfg v && Bitset.mem allowed v then Bitset.set usable v
  done;
  (* Convex hull of [set + v] in one shot: reachability is transitive,
     so the repair set is exactly the nodes lying on some path between
     two members — descendants of the set that are also its ancestors.
     Returns [None] when the hull needs a node the caller may not use
     (invalid operation or outside [allowed]). *)
  let hull set v =
    let c = Bitset.copy set in
    Bitset.set c v;
    let desc = Bitset.create n and anc = Bitset.create n in
    Bitset.iter
      (fun a ->
        Bitset.union_into desc (Ir.Dfg.reachable_from dfg a);
        Bitset.union_into anc (Ir.Dfg.ancestors_of dfg a))
      c;
    Bitset.inter_into desc anc;
    Bitset.diff_into desc c;
    if Bitset.subset desc usable then begin
      Bitset.union_into c desc;
      Some c
    end
    else None
  in
  (* ISEGEN-style merit: cycle gain first, with a soft penalty per
     excess register port so a walk may cross a mildly I/O-infeasible
     ridge (recording nothing there) instead of stalling below it. *)
  let score ci =
    let excess_in =
      max 0 (ci.Isa.Custom_inst.inputs - constraints.Isa.Hw_model.max_inputs)
    and excess_out =
      max 0 (ci.Isa.Custom_inst.outputs - constraints.Isa.Hw_model.max_outputs)
    in
    (8 * Isa.Custom_inst.gain ci) - (params.io_penalty * (excess_in + excess_out))
  in
  let found : (string, Isa.Custom_inst.t) Hashtbl.t = Hashtbl.create 256 in
  (* Evaluate [set] once, recording it when it is a new feasible
     positive-gain candidate. *)
  let evaluate set =
    let ci = Isa.Custom_inst.make_unchecked dfg set in
    if Isa.Custom_inst.gain ci > 0 then begin
      let key = Bitset.to_key set in
      if
        (not (Hashtbl.mem found key)) && Isa.Custom_inst.admissible ~constraints dfg ci
      then Hashtbl.add found key ci
    end;
    ci
  in
  let mark = Bitset.create n in
  (* One hill-climbing walk: evaluate the full grow/shrink
     neighbourhood each step (every evaluation also records a feasible
     candidate), move to the strictly best-scoring neighbour; equal
     scores go to the smaller [key_of_set]. *)
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
          | Some (bs, bset)
            when bs > s || (bs = s && key_of_set bset <= key_of_set set) -> ()
          | _ -> best := Some (s, set)
        end
      in
      if Bitset.cardinal !cur < params.max_size then
        List.iter
          (fun v ->
            match hull !cur v with
            | Some h when Bitset.cardinal h <= params.max_size -> consider h
            | Some _ | None -> ())
          (frontier dfg allowed ~mark !cur);
      if Bitset.cardinal !cur > 1 then
        Bitset.iter
          (fun v ->
            let sub = Bitset.copy !cur in
            Bitset.clear sub v;
            if Ir.Dfg.is_connected dfg sub && Ir.Dfg.is_convex dfg sub then
              consider sub)
          !cur;
      match !best with
      | Some (s, set) when s > !cur_score ->
        cur := set;
        cur_score := s
      | Some _ | None -> continue_ := false
    done
  in
  let seeds = Bitset.elements usable in
  let seeds =
    if List.length seeds <= params.restarts then seeds
    else begin
      (* more restarts than we can afford: a seeded shuffle picks which
         starting nodes this run explores — distinct seeds diverge *)
      let arr = Array.of_list seeds in
      Util.Prng.shuffle (Util.Prng.create params.seed) arr;
      Array.to_list (Array.sub arr 0 params.restarts)
    end
  in
  List.iter (fun s -> if Engine.Guard.tick guard then walk s) seeds;
  (* Grow-merge pass: the union of two good cuts (hull-repaired) is
     often the pattern neither walk reached — e.g. a feasible set whose
     every one-node predecessor violates the port limits. *)
  let by_quality a b =
    match compare (Isa.Custom_inst.gain b) (Isa.Custom_inst.gain a) with
    | 0 -> compare (key_of_set a.Isa.Custom_inst.nodes) (key_of_set b.Isa.Custom_inst.nodes)
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
            if
              Bitset.cardinal u <= params.max_size
              && Ir.Dfg.is_connected dfg u
            then begin
              (* hull-close the union; [hull] takes set + one node, so
                 seed it with u minus one element plus that element *)
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
  Obs.Metrics.inc ~by:(float_of_int (Hashtbl.length found)) "isegen.candidates";
  Obs.Metrics.observe "isegen.candidates_per_block"
    (float_of_int (Hashtbl.length found));
  Hashtbl.fold (fun _ ci acc -> ci :: acc) found [] |> List.sort by_quality

let best_cut ?guard ?constraints ?params ~allowed dfg =
  match generate ?guard ?constraints ?params ~allowed dfg with
  | [] -> None
  | best :: _ -> Some best

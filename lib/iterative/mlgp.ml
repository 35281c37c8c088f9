module Bitset = Util.Bitset

(* Clusters are disjoint node sets.  Adjacency between clusters is
   direct-edge adjacency between their member nodes. *)

(* What MLGP reads off a node set: its gain/area ratio and the gain it
   will actually contribute once emitted (partitions with non-positive
   gain are left in software). *)
type score = { ratio : float; gain : int }

let empty_score = { ratio = 0.; gain = 0 }

let score_of ci =
  let gain = Isa.Custom_inst.gain ci in
  { ratio = float_of_int gain /. float_of_int (max 1 ci.Isa.Custom_inst.area);
    gain = max 0 gain }

(* One admission test per candidate set, and one evaluation of a set
   that passes: [None] when the set is not a legal custom instruction
   (the empty set is legal and scores 0). *)
let legal_score ?constraints dfg set =
  if Bitset.is_empty set then Some empty_score
  else if Isa.Custom_inst.feasible ?constraints dfg set then
    Some (score_of (Isa.Custom_inst.make_unchecked dfg set))
  else None

(* The contracted ("quotient") graph: one macro per cluster or
   partition (ids below [k]) and one per node outside them all (id
   [k + v]).  A candidate change is passed as [~moved ~into]: every
   node whose [group] entry is [moved] joins macro [into].

   Contracting must leave the quotient acyclic, otherwise the
   partitions cannot all be fused simultaneously (the
   joint-schedulability hazard Codegen.sanitize guards against).  The
   quotient is acyclic before every merge or move — the singletons are
   the DFG itself and every applied change was checked — so a cycle
   after the change passes through the macro [into] that grew.
   Shrinking the source partition of a move cannot close a cycle that
   avoids [into]: mapped back onto the old quotient it would be a cycle
   there.  So the test searches from [into] only.  Its visited stamps
   and stack belong to the partition run. *)
type scratch = { seen : int array; stack : int array; mutable stamp : int }

type quotient = {
  dfg : Ir.Dfg.t;
  k : int;
  owner : int array;  (** node -> cluster or partition id, -1 outside *)
  sets : Bitset.t array;  (** members of each id below [k] *)
  sc : scratch;
  group : int array;  (** node -> the unit a candidate change moves *)
}

let macro_of q ~moved ~into v =
  if q.group.(v) = moved then into
  else match q.owner.(v) with -1 -> q.k + v | c -> c

exception Cycle

(* Does the candidate change (group [moved] joins macro [into], which
   then has [members]) close a cycle in the quotient?  A depth-first
   search from [into]'s successors that reaches [into] again. *)
let creates_cycle q ~moved ~into members =
  let sc = q.sc in
  sc.stamp <- sc.stamp + 1;
  let stamp = sc.stamp in
  let top = ref 0 in
  let visit x =
    if x = into then raise Cycle
    else if sc.seen.(x) <> stamp then begin
      sc.seen.(x) <- stamp;
      sc.stack.(!top) <- x;
      incr top
    end
  in
  let visit_succs v =
    List.iter (fun s -> visit (macro_of q ~moved ~into s)) (Ir.Dfg.succs q.dfg v)
  in
  match
    Bitset.iter
      (fun v ->
        List.iter
          (fun s -> let x = macro_of q ~moved ~into s in if x <> into then visit x)
          (Ir.Dfg.succs q.dfg v))
      members;
    while !top > 0 do
      decr top;
      let x = sc.stack.(!top) in
      if x >= q.k then visit_succs (x - q.k)
      else
        Bitset.iter (fun v -> if macro_of q ~moved ~into v = x then visit_succs v) q.sets.(x)
    done
  with
  | () -> false
  | exception Cycle -> true

(* Cluster-level adjacency for the current cluster list. *)
let cluster_neighbors dfg cluster_of set =
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
  !out

let owner_of n sets =
  let owner = Array.make n (-1) in
  Array.iteri (fun i set -> Bitset.iter (fun v -> owner.(v) <- i) set) sets;
  owner

(* One coarsening pass: visit clusters in random order and merge each
   unconsumed cluster with its best legal neighbour.  A cluster that
   found no partner stays available as a merge target for clusters
   visited later (consumed is set only by an actual merge). *)
let coarsen_pass ?constraints dfg prng sc tried clusters =
  let n = Ir.Dfg.node_count dfg in
  let k = Array.length clusters in
  let sets = Array.copy clusters in
  let live = Array.make k true in
  let cluster_of = owner_of n sets in
  let q = { dfg; k; owner = cluster_of; sets; sc; group = cluster_of } in
  let order = Array.init k (fun i -> i) in
  Util.Prng.shuffle prng order;
  let consumed = Array.make k false in
  let merged = ref false in
  Array.iter
    (fun i ->
      if not consumed.(i) then begin
        let set = sets.(i) in
        let candidates =
          cluster_neighbors dfg cluster_of set
          |> List.filter (fun j -> j <> i && not consumed.(j))
        in
        let best = ref None in
        List.iter
          (fun j ->
            incr tried;
            let union = Bitset.copy set in
            Bitset.union_into union sets.(j);
            match legal_score ?constraints dfg union with
            | None -> ()
            | Some { ratio = r; _ } ->
              if not (creates_cycle q ~moved:j ~into:i union) then begin
                match !best with
                | Some (br, _, _) when br >= r -> ()
                | Some _ | None -> best := Some (r, j, union)
              end)
          candidates;
        match !best with
        | Some (_, j, union) ->
          consumed.(i) <- true;
          consumed.(j) <- true;
          sets.(i) <- union;
          live.(j) <- false;
          Bitset.iter (fun v -> cluster_of.(v) <- i) union;
          merged := true
        | None -> ()
      end)
    order;
  let next =
    Array.to_list sets |> List.filteri (fun c _ -> live.(c)) |> Array.of_list
  in
  (next, !merged)

(* Refinement at one level: move boundary units between partitions when
   the summed gain/area ratio improves and both partitions stay legal
   (Algorithm 5, without the directional input/output repair).
   [scores] holds each partition's score and follows every move. *)
let refine_level ?constraints dfg prng sc tried units assignment partitions
    scores =
  let n_units = Array.length units in
  let order = Array.init n_units (fun i -> i) in
  Util.Prng.shuffle prng order;
  let unit_of_node = Array.make (Ir.Dfg.node_count dfg) (-1) in
  Array.iteri (fun i u -> Bitset.iter (fun v -> unit_of_node.(v) <- i) u) units;
  let part_of_node = owner_of (Ir.Dfg.node_count dfg) partitions in
  let q =
    { dfg; k = Array.length partitions; owner = part_of_node; sets = partitions; sc;
      group = unit_of_node }
  in
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
        match legal_score ?constraints dfg src_without with
        | None -> ()
        | Some without ->
          let base_src = scores.(src).ratio in
          let base_src_gain = scores.(src).gain in
          let best = ref None in
          List.iter
            (fun p ->
              incr tried;
              let dst_with = Bitset.copy partitions.(p) in
              Bitset.union_into dst_with unit;
              match legal_score ?constraints dfg dst_with with
              | None -> ()
              | Some with_ ->
                let improvement =
                  with_.ratio -. scores.(p).ratio +. without.ratio -. base_src
                in
                (* the ratio objective (Algorithm 5) chooses the move,
                   but a move must never lose emittable cycles — chasing
                   small dense partitions can wreck absolute gain *)
                let gain_delta =
                  with_.gain + without.gain - scores.(p).gain - base_src_gain
                in
                if
                  improvement > 1e-12 && gain_delta >= 0
                  && not (creates_cycle q ~moved:i ~into:p dst_with)
                then
                  match !best with
                  | Some (bi, _, _, _) when bi >= improvement -> ()
                  | Some _ | None -> best := Some (improvement, p, dst_with, with_))
            !neighbour_parts;
          match !best with
          | Some (_, p, dst_with, with_) ->
            partitions.(src) <- src_without;
            partitions.(p) <- dst_with;
            scores.(src) <- without;
            scores.(p) <- with_;
            Bitset.iter (fun v -> part_of_node.(v) <- p) unit;
            assignment.(i) <- p;
            changed := true
          | None -> ()
      end)
    order;
  !changed

let partition_region ?constraints ?(seed = 17) ?(refine = true) dfg ~allowed =
  Engine.Trace.with_span "mlgp.partition" @@ fun () ->
  Obs.Metrics.time_s "mlgp.partition" @@ fun () ->
  let prng = Util.Prng.create seed in
  let n = Ir.Dfg.node_count dfg in
  (* Level 0: singletons. *)
  let singletons =
    Bitset.fold (fun v acc -> Bitset.of_list n [ v ] :: acc) allowed []
    |> List.rev |> Array.of_list
  in
  let k = Array.length singletons in
  if k = 0 then []
  else begin
    let sc = { seen = Array.make (k + n) 0; stack = Array.make (k + n) 0; stamp = 0 } in
    let merges = ref 0 and moves = ref 0 in
    (* Coarsening, recording each level's clusters. *)
    let levels = ref [ singletons ] in
    let rec coarsen clusters =
      let next, progress = coarsen_pass ?constraints dfg prng sc merges clusters in
      if progress then begin
        levels := next :: !levels;
        coarsen next
      end
    in
    Engine.Trace.with_span "mlgp.coarsen" (fun () ->
        Obs.Metrics.time_s "mlgp.coarsen" (fun () -> coarsen singletons));
    (* Initial partitioning: each coarsest cluster is a partition. *)
    let coarsest = List.hd !levels in
    let partitions = Array.map Bitset.copy coarsest in
    (* Uncoarsening: at each finer level the units are that level's
       clusters; their initial assignment is the partition that contains
       them. *)
    if refine then
      Engine.Trace.with_span "mlgp.refine" (fun () ->
          Obs.Metrics.time_s "mlgp.refine" (fun () ->
              let scores =
                Array.map
                  (fun set -> score_of (Isa.Custom_inst.make_unchecked dfg set))
                  partitions
              in
              List.iter
                (fun units ->
                  let part_of_node = owner_of n partitions in
                  let assignment =
                    Array.map
                      (fun u ->
                        match Bitset.elements u with
                        | v :: _ -> part_of_node.(v)
                        | [] -> 0)
                      units
                  in
                  let rec fixpoint rounds =
                    if
                      rounds > 0
                      && refine_level ?constraints dfg prng sc moves units
                           assignment partitions scores
                    then fixpoint (rounds - 1)
                  in
                  fixpoint 3)
                (List.tl !levels)));
    Obs.Metrics.inc ~by:(float_of_int !merges) "mlgp.merge_candidates";
    Obs.Metrics.inc ~by:(float_of_int !moves) "mlgp.move_candidates";
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

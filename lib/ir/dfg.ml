module Bitset = Util.Bitset

type node = int

type t = {
  kinds : Op.kind array;
  preds : node list array; (* in reverse insertion order *)
  succs : node list array;
  live_out_marks : bool array;
  topo : node array;
  closures : (Bitset.t array * Bitset.t array) lazy_t;
      (* (reach, anc): reach.(v) = nodes reachable from v, anc.(v) =
         nodes that reach v, v excluded from both *)
}

module Builder = struct
  type dfg = t

  type t = {
    mutable b_kinds : Op.kind list; (* reversed *)
    mutable b_count : int;
    mutable b_edges : (node * node) list;
    mutable b_live_out : node list;
  }

  let create () = { b_kinds = []; b_count = 0; b_edges = []; b_live_out = [] }

  let add b kind =
    let id = b.b_count in
    b.b_kinds <- kind :: b.b_kinds;
    b.b_count <- b.b_count + 1;
    id

  let edge b src dst =
    if src < 0 || dst < 0 || src >= b.b_count || dst >= b.b_count then
      invalid_arg "Dfg.Builder.edge: unknown node";
    if src >= dst then invalid_arg "Dfg.Builder.edge: src must precede dst";
    b.b_edges <- (src, dst) :: b.b_edges

  let add_with b kind operands =
    let id = add b kind in
    List.iter (fun src -> edge b src id) operands;
    id

  let mark_live_out b v =
    if v < 0 || v >= b.b_count then invalid_arg "Dfg.Builder.mark_live_out";
    b.b_live_out <- v :: b.b_live_out

  let finish b : dfg =
    let n = b.b_count in
    let kinds = Array.of_list (List.rev b.b_kinds) in
    let preds = Array.make n [] and succs = Array.make n [] in
    (* b_edges is in reverse insertion order; prepending restores the
       insertion order in the adjacency lists. *)
    List.iter
      (fun (src, dst) ->
        preds.(dst) <- src :: preds.(dst);
        succs.(src) <- dst :: succs.(src))
      b.b_edges;
    Array.iteri
      (fun v ps ->
        if List.length ps > Op.arity kinds.(v) then
          invalid_arg
            (Printf.sprintf "Dfg.Builder.finish: node %d (%s) has %d operands, arity %d"
               v (Op.name kinds.(v)) (List.length ps) (Op.arity kinds.(v))))
      preds;
    let live_out_marks = Array.make n false in
    List.iter (fun v -> live_out_marks.(v) <- true) b.b_live_out;
    (* Node ids are already topological because edges only go forward. *)
    let topo = Array.init n (fun i -> i) in
    let closures =
      lazy
        (let close order adj =
           let r = Array.init n (fun _ -> Bitset.create n) in
           List.iter
             (fun i ->
               List.iter
                 (fun w ->
                   Bitset.set r.(i) w;
                   Bitset.union_into r.(i) r.(w))
                 adj.(i))
             order;
           r
         in
         let ids = List.init n (fun i -> i) in
         (close (List.rev ids) succs, close ids preds))
    in
    { kinds; preds; succs; live_out_marks; topo; closures }
end

let node_count t = Array.length t.kinds
let kind t v = t.kinds.(v)
let preds t v = t.preds.(v)
let succs t v = t.succs.(v)
let live_out t v = t.live_out_marks.(v) || t.succs.(v) = []
let topo_order t = t.topo
let nodes t = List.init (node_count t) (fun i -> i)
let valid_node t v = Op.is_valid t.kinds.(v)

let sw_cycles_total t =
  Array.fold_left (fun acc k -> acc + Op.sw_cycles k) 0 t.kinds

let sw_cycles_of_set t set =
  Bitset.fold (fun v acc -> acc + Op.sw_cycles t.kinds.(v)) set 0

let input_count t set =
  let external_producers = Bitset.create (node_count t) in
  let implicit = ref 0 in
  Bitset.iter
    (fun v ->
      let explicit = List.length t.preds.(v) in
      implicit := !implicit + (Op.arity t.kinds.(v) - explicit);
      List.iter
        (fun p -> if not (Bitset.mem set p) then Bitset.set external_producers p)
        t.preds.(v))
    set;
  Bitset.cardinal external_producers + !implicit

let output_count t set =
  Bitset.fold
    (fun v acc ->
      let escapes =
        t.live_out_marks.(v)
        || t.succs.(v) = []
        || List.exists (fun s -> not (Bitset.mem set s)) t.succs.(v)
      in
      if escapes then acc + 1 else acc)
    set 0

let reachable_from t v = (fst (Lazy.force t.closures)).(v)
let ancestors_of t v = (snd (Lazy.force t.closures)).(v)

(* Convex iff no successor outside the set can reach back into it. *)
let is_convex t set =
  let reach = fst (Lazy.force t.closures) in
  let ok = ref true in
  Bitset.iter
    (fun v ->
      List.iter
        (fun w ->
          if (not (Bitset.mem set w)) && Bitset.intersects reach.(w) set then
            ok := false)
        t.succs.(v))
    set;
  !ok

let is_connected t set =
  match Bitset.elements set with
  | [] | [ _ ] -> true
  | seed :: _ ->
    let visited = Bitset.create (node_count t) in
    let rec walk v =
      if Bitset.mem set v && not (Bitset.mem visited v) then begin
        Bitset.set visited v;
        List.iter walk t.preds.(v);
        List.iter walk t.succs.(v)
      end
    in
    walk seed;
    Bitset.cardinal visited = Bitset.cardinal set

let all_valid t set =
  Bitset.fold (fun v acc -> acc && valid_node t v) set true

(* Node ids are topological, so ascending members are visited in
   [topo] order.  [finish] is scratch that grows to the largest DFG
   seen: a call reads only the entries of member predecessors, which it
   has written itself, so what earlier calls left behind is never read.
   There is one scratch per domain, and the systhreads of a domain share
   it, so a call takes it with a compare-and-set and releases it on
   return; a call that finds it taken (another thread of the domain is
   inside [critical_path]) works in a fresh array. *)
type finish_scratch = { busy : bool Atomic.t; mutable finish : float array }

let finish_scratch =
  Domain.DLS.new_key (fun () -> { busy = Atomic.make false; finish = [||] })

let critical_path t ~delay set =
  let n = node_count t in
  let scratch = Domain.DLS.get finish_scratch in
  let owned = Atomic.compare_and_set scratch.busy false true in
  let finish =
    if not owned then Array.make n 0.
    else begin
      if Array.length scratch.finish < n then scratch.finish <- Array.make n 0.;
      scratch.finish
    end
  in
  let best = ref 0. in
  match
    Bitset.iter
      (fun v ->
        let start =
          List.fold_left
            (fun acc p -> if Bitset.mem set p then Float.max acc finish.(p) else acc)
            0. t.preds.(v)
        in
        finish.(v) <- start +. delay t.kinds.(v);
        best := Float.max !best finish.(v))
      set
  with
  | () ->
    if owned then Atomic.set scratch.busy false;
    !best
  | exception e ->
    if owned then Atomic.set scratch.busy false;
    raise e

let pp_stats fmt t =
  Format.fprintf fmt "dfg: %d nodes, %d sw cycles, %d valid"
    (node_count t) (sw_cycles_total t)
    (List.length (List.filter (valid_node t) (nodes t)))

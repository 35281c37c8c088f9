module Bitset = Util.Bitset

type node = int

type t = {
  kinds : Op.kind array;
  preds : node list array; (* in reverse insertion order *)
  succs : node list array;
  (* the same adjacency as arrays, and per node its implicit live-in
     operands and whether its value escapes whatever the set (marked
     live-out or no successors): the port counts read only these *)
  pred_arr : node array array;
  succ_arr : node array array;
  implicit : int array;
  escapes : bool array;
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
    let implicit = Array.init n (fun v -> Op.arity kinds.(v) - List.length preds.(v)) in
    let escapes = Array.init n (fun v -> live_out_marks.(v) || succs.(v) = []) in
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
    { kinds;
      preds;
      succs;
      pred_arr = Array.map Array.of_list preds;
      succ_arr = Array.map Array.of_list succs;
      implicit;
      escapes;
      topo;
      closures }
end

let node_count t = Array.length t.kinds
let kind t v = t.kinds.(v)
let preds t v = t.preds.(v)
let succs t v = t.succs.(v)
let live_out t v = t.escapes.(v)
let topo_order t = t.topo
let nodes t = List.init (node_count t) (fun i -> i)
let valid_node t v = Op.is_valid t.kinds.(v)

let sw_cycles_total t =
  Array.fold_left (fun acc k -> acc + Op.sw_cycles k) 0 t.kinds

let sw_cycles_of_set t set =
  Bitset.fold (fun v acc -> acc + Op.sw_cycles t.kinds.(v)) set 0

(* Per-domain scratch: [stamp] marks counted producers with the call's
   [epoch], so it is never cleared; [finish] holds [critical_path]'s
   finish times.  Both grow to the largest DFG seen, and a call reads
   only entries it has written itself.  The systhreads of a domain
   share the record, so a call takes it with a compare-and-set and
   releases it on return; a call that finds it taken (another thread of
   the domain is inside) works in a fresh one. *)
type scratch = {
  busy : bool Atomic.t;
  mutable stamp : int array;
  mutable epoch : int;
  mutable finish : float array;
}

let fresh_scratch () =
  { busy = Atomic.make false; stamp = [||]; epoch = 0; finish = [||] }

let scratch_key = Domain.DLS.new_key fresh_scratch

let acquire () =
  let s = Domain.DLS.get scratch_key in
  if Atomic.compare_and_set s.busy false true then s else fresh_scratch ()

let release s = Atomic.set s.busy false

(* Inputs of [set] (distinct external producers plus implicit
   operands), counted until the count passes [limit]. *)
let count_inputs t set limit stamp epoch =
  let n = Bitset.capacity set in
  let count = ref 0 in
  let v = ref (Bitset.next set 0) in
  while !v < n && !count <= limit do
    count := !count + t.implicit.(!v);
    let ps = t.pred_arr.(!v) in
    for j = 0 to Array.length ps - 1 do
      let p = Array.unsafe_get ps j in
      if (not (Bitset.mem set p)) && Array.unsafe_get stamp p <> epoch then begin
        Array.unsafe_set stamp p epoch;
        incr count
      end
    done;
    v := Bitset.next set (!v + 1)
  done;
  !count

let inputs_upto t set limit =
  let s = acquire () in
  let n = node_count t in
  if Array.length s.stamp < n then s.stamp <- Array.make n 0;
  s.epoch <- s.epoch + 1;
  match count_inputs t set limit s.stamp s.epoch with
  | c ->
    release s;
    c
  | exception e ->
    release s;
    raise e

let escapes_set t set v =
  t.escapes.(v)
  ||
  let ss = t.succ_arr.(v) in
  let j = ref 0 in
  while !j < Array.length ss && Bitset.mem set (Array.unsafe_get ss !j) do
    incr j
  done;
  !j < Array.length ss

let outputs_upto t set limit =
  let n = Bitset.capacity set in
  let count = ref 0 in
  let v = ref (Bitset.next set 0) in
  while !v < n && !count <= limit do
    if escapes_set t set !v then incr count;
    v := Bitset.next set (!v + 1)
  done;
  !count

let input_count t set = inputs_upto t set max_int
let output_count t set = outputs_upto t set max_int

let ports_within t ~max_inputs ~max_outputs set =
  inputs_upto t set max_inputs <= max_inputs
  && outputs_upto t set max_outputs <= max_outputs

let reachable_from t v = (fst (Lazy.force t.closures)).(v)
let ancestors_of t v = (snd (Lazy.force t.closures)).(v)

(* Convex iff no successor outside the set can reach back into it. *)
let is_convex t set =
  let reach = fst (Lazy.force t.closures) in
  let n = Bitset.capacity set in
  let ok = ref true in
  let v = ref (Bitset.next set 0) in
  while !ok && !v < n do
    let ss = t.succ_arr.(!v) in
    for j = 0 to Array.length ss - 1 do
      let w = Array.unsafe_get ss j in
      if (not (Bitset.mem set w)) && Bitset.intersects reach.(w) set then ok := false
    done;
    v := Bitset.next set (!v + 1)
  done;
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
  let n = Bitset.capacity set in
  let v = ref (Bitset.next set 0) in
  while !v < n && valid_node t !v do
    v := Bitset.next set (!v + 1)
  done;
  !v >= n

(* Node ids are topological, so ascending members are visited in
   [topo] order. *)
let critical_path t ~delay set =
  let n = node_count t in
  let s = acquire () in
  if Array.length s.finish < n then s.finish <- Array.make n 0.;
  let finish = s.finish in
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
    release s;
    !best
  | exception e ->
    release s;
    raise e

let pp_stats fmt t =
  Format.fprintf fmt "dfg: %d nodes, %d sw cycles, %d valid"
    (node_count t) (sw_cycles_total t)
    (List.length (List.filter (valid_node t) (nodes t)))

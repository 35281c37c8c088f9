(* Deterministic colour mixing: OCaml int arithmetic wraps, so the
   values are stable across runs and platforms with 63-bit ints. *)
let combine h xs = List.fold_left (fun h x -> (h * 1000003) lxor x) h xs

let kind_color =
  let table = List.mapi (fun i k -> (k, i)) Ir.Op.all in
  fun k -> List.assoc k table

(* ---------------------------------------------------------------- *)
(* Tasks                                                             *)
(* ---------------------------------------------------------------- *)

let canon_task (ts : Instance.task_spec) =
  { ts with Instance.points = List.stable_sort compare ts.points }

let canon_tasks tasks =
  let arr = Array.of_list (List.map canon_task tasks) in
  let order = Array.init (Array.length arr) Fun.id in
  (* ties keep request order so the permutation is well defined *)
  Array.sort
    (fun i j ->
      match compare arr.(i) arr.(j) with 0 -> compare i j | c -> c)
    order;
  let perm = Array.make (Array.length arr) 0 in
  Array.iteri (fun pos old -> perm.(old) <- pos) order;
  (Array.to_list (Array.map (fun old -> arr.(old)) order), perm)

(* ---------------------------------------------------------------- *)
(* DFG                                                               *)
(* ---------------------------------------------------------------- *)

let dfg (d : Instance.dfg_spec) =
  let n = List.length d.kinds in
  if n = 0 then d
  else begin
    let kinds = Array.of_list d.kinds in
    let live = Array.make n false in
    List.iter (fun v -> live.(v) <- true) d.live_outs;
    let preds = Array.make n [] and succs = Array.make n [] in
    List.iter
      (fun (s, t) ->
        succs.(s) <- t :: succs.(s);
        preds.(t) <- s :: preds.(t))
      d.edges;
    let color =
      Array.init n (fun v ->
          combine 0x1505
            [ kind_color kinds.(v);
              Ir.Op.arity kinds.(v);
              (if live.(v) then 1 else 0);
              List.length preds.(v);
              List.length succs.(v) ])
    in
    let refine rounds =
      for _ = 1 to rounds do
        let next =
          Array.init n (fun v ->
              combine color.(v)
                (List.sort compare (List.map (fun p -> color.(p)) preds.(v))
                @ (min_int
                  :: List.sort compare (List.map (fun s -> color.(s)) succs.(v)))))
        in
        Array.blit next 0 color 0 n
      done
    in
    refine (min n 10);
    (* individualization-refinement: number the minimum-colour ready
       node, re-refine, repeat — a canonical topological order *)
    let newid = Array.make n (-1) in
    let waiting = Array.init n (fun v -> List.length preds.(v)) in
    for pos = 0 to n - 1 do
      let best = ref (-1) in
      for v = 0 to n - 1 do
        if newid.(v) < 0 && waiting.(v) = 0 then
          if !best < 0 || color.(v) < color.(!best) then best := v
      done;
      let v = !best in
      newid.(v) <- pos;
      List.iter (fun s -> waiting.(s) <- waiting.(s) - 1) succs.(v);
      color.(v) <- combine 0x9e3779b9 [ pos ];
      refine (min n 3)
    done;
    let old_of = Array.make n 0 in
    Array.iteri (fun old pos -> old_of.(pos) <- old) newid;
    { Instance.kinds = List.init n (fun pos -> kinds.(old_of.(pos)));
      edges =
        List.sort compare
          (List.map (fun (s, t) -> (newid.(s), newid.(t))) d.edges);
      live_outs = List.sort_uniq compare (List.map (fun v -> newid.(v)) d.live_outs)
    }
  end

let instance (inst : Instance.t) =
  let tasks, perm = canon_tasks inst.Instance.tasks in
  ({ inst with Instance.tasks; dfg = dfg inst.Instance.dfg }, perm)

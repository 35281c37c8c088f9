type curve_point = { area : int; cycles : int }

type task_spec = { period : int; base : int; points : curve_point list }

type dfg_spec = {
  kinds : Ir.Op.kind list;
  edges : (int * int) list;
  live_outs : int list;
}

type t = {
  tasks : task_spec list;
  budget : int;
  eps : float;
  dfg : dfg_spec;
}

let valid_task ts =
  ts.period > 0 && ts.base > 0
  && List.for_all (fun p -> p.area >= 0 && p.cycles >= 1 && p.cycles <= ts.base)
       ts.points

let valid_dfg d =
  let n = List.length d.kinds in
  let in_degree = Array.make (max n 1) 0 in
  List.for_all
    (fun (src, dst) ->
      let ok = 0 <= src && src < dst && dst < n in
      if ok then in_degree.(dst) <- in_degree.(dst) + 1;
      ok)
    d.edges
  && List.for_all (fun v -> 0 <= v && v < n) d.live_outs
  && List.for_all2
       (fun kind deg -> deg <= Ir.Op.arity kind)
       d.kinds
       (Array.to_list (Array.sub in_degree 0 n))

let valid t =
  t.budget >= 0 && t.eps > 0.
  && List.for_all valid_task t.tasks
  && valid_dfg t.dfg

let tasks t =
  List.mapi
    (fun i ts ->
      let curve =
        Isa.Config.of_points ~base_cycles:ts.base
          (List.map (fun p -> { Isa.Config.area = p.area; cycles = p.cycles })
             ts.points)
      in
      Rt.Task.make ~name:(Printf.sprintf "t%d" i) ~period:ts.period curve)
    t.tasks

let dfg t =
  let b = Ir.Dfg.Builder.create () in
  List.iter (fun kind -> ignore (Ir.Dfg.Builder.add b kind)) t.dfg.kinds;
  List.iter (fun (src, dst) -> Ir.Dfg.Builder.edge b src dst) t.dfg.edges;
  List.iter (fun v -> Ir.Dfg.Builder.mark_live_out b v) t.dfg.live_outs;
  Ir.Dfg.Builder.finish b

let size t =
  List.length t.tasks
  + Util.Numeric.sum_by
      (fun ts ->
        ts.period + ts.base
        + Util.Numeric.sum_by (fun p -> 1 + p.area + p.cycles) ts.points)
      t.tasks
  + List.length t.dfg.kinds
  + List.length t.dfg.edges
  + t.budget

let equal a b = a = b

let pp fmt t =
  Format.fprintf fmt "@[<v>budget %d, eps %.3f@," t.budget t.eps;
  List.iteri
    (fun i ts ->
      Format.fprintf fmt "t%d: P=%d C=%d curve=[%s]@," i ts.period ts.base
        (String.concat "; "
           (List.map (fun p -> Printf.sprintf "(%d,%d)" p.area p.cycles) ts.points)))
    t.tasks;
  Format.fprintf fmt "dfg: %d nodes, %d edges@]" (List.length t.dfg.kinds)
    (List.length t.dfg.edges)

let to_json t =
  let open Obs.Jsonx in
  obj
    [ ("budget", string_of_int t.budget);
      (* %.17g round-trips doubles exactly; Jsonx.float's %.6f would
         change eps across a repro write/read cycle *)
      ("eps", Printf.sprintf "%.17g" t.eps);
      ( "tasks",
        arr
          (List.map
             (fun ts ->
               obj
                 [ ("period", string_of_int ts.period);
                   ("base", string_of_int ts.base);
                   ( "points",
                     arr
                       (List.map
                          (fun p ->
                            obj
                              [ ("area", string_of_int p.area);
                                ("cycles", string_of_int p.cycles) ])
                          ts.points) ) ])
             t.tasks) );
      ( "dfg",
        obj
          [ ( "kinds",
              arr (List.map (fun k -> string (Ir.Op.name k)) t.dfg.kinds) );
            ( "edges",
              arr
                (List.map
                   (fun (s, d) -> arr [ string_of_int s; string_of_int d ])
                   t.dfg.edges) );
            ( "live_outs",
              arr (List.map string_of_int t.dfg.live_outs) ) ] ) ]

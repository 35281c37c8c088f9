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
  t.budget >= 0 && t.eps > 0. && Float.is_finite t.eps
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

module J = Util.Json

let num_int i = J.Num (float_of_int i)

let to_json (t : t) =
  let point p = J.Obj [ ("area", num_int p.area); ("cycles", num_int p.cycles) ] in
  let task ts =
    J.Obj
      [ ("period", num_int ts.period);
        ("base", num_int ts.base);
        ("points", J.Arr (List.map point ts.points)) ]
  in
  J.Obj
    [ ("budget", num_int t.budget);
      ("eps", J.Num t.eps);
      ("tasks", J.Arr (List.map task t.tasks));
      ( "dfg",
        J.Obj
          [ ("kinds", J.Arr (List.map (fun k -> J.Str (Ir.Op.name k)) t.dfg.kinds));
            ( "edges",
              J.Arr
                (List.map (fun (s, d) -> J.Arr [ num_int s; num_int d ]) t.dfg.edges) );
            ("live_outs", J.Arr (List.map num_int t.dfg.live_outs)) ] ) ]

let kind_of_name =
  let table = List.map (fun k -> (Ir.Op.name k, k)) Ir.Op.all in
  fun name ->
    match List.assoc_opt name table with
    | Some k -> k
    | None -> raise (J.Parse_error ("unknown operation " ^ name))

let of_json j =
  let open J in
  let task_of j =
    { period = as_int (field j "period");
      base = as_int (field j "base");
      points =
        List.map
          (fun p -> { area = as_int (field p "area"); cycles = as_int (field p "cycles") })
          (as_list (field j "points")) }
  in
  let dfg = field j "dfg" in
  { tasks = List.map task_of (as_list (field j "tasks"));
    budget = as_int (field j "budget");
    eps = as_float (field j "eps");
    dfg =
      { kinds =
          List.map (fun k -> kind_of_name (as_string k)) (as_list (field dfg "kinds"));
        edges =
          List.map
            (fun e ->
              match as_list e with
              | [ s; d ] -> (as_int s, as_int d)
              | _ -> raise (Parse_error "edge must be a [src, dst] pair"))
            (as_list (field dfg "edges"));
        live_outs = List.map as_int (as_list (field dfg "live_outs")) } }

let instance_of_json text =
  match of_json (J.parse text) with
  | inst when valid inst -> Ok inst
  | _ -> Error "instance violates a constructor precondition"
  | exception J.Parse_error msg -> Error msg

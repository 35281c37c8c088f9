module J = Util.Json

let () =
  Obs.Metrics.declare ~help:"Batch requests received, by operation"
    Obs.Metrics.Counter "batch.requests";
  Obs.Metrics.declare ~help:"Groups recomputed inline after pool failure"
    Obs.Metrics.Counter "batch.group_recovered"

type stats = {
  requests : int;
  unique : int;
  groups : int;
  dedup_hits : int;
  memo_hits : int;
  swept : int;
}

let hit_rate s =
  if s.requests = 0 then 0.
  else float_of_int (s.dedup_hits + s.memo_hits) /. float_of_int s.requests

let pp_stats fmt s =
  Format.fprintf fmt
    "%d requests: %d unique, %d groups, %d dedup hits, %d memo hits, %d swept, \
     hit-rate %.1f%%"
    s.requests s.unique s.groups s.dedup_hits s.memo_hits s.swept
    (100. *. hit_rate s)

(* Same resolution as the fuzz properties: instance DFGs are small and
   the corpus expects stable curves. *)
let curve_params = { Ise.Curve.small with Ise.Curve.sweep_points = 8 }

let base_of (i : Instance.t) =
  Util.Numeric.sum_byf
    (fun (ts : Instance.task_spec) -> float_of_int ts.base)
    i.Instance.tasks

let num_int i = J.Num (float_of_int i)

let status_field st =
  ( "status",
    J.Str (match st with Engine.Guard.Exact -> "exact" | Partial _ -> "partial") )

let point_json (p : Isa.Config.point) =
  J.Obj [ ("area", num_int p.area); ("cycles", num_int p.cycles) ]

let selection_fields (sel : Core.Selection.t) =
  [ ("utilization", J.Num sel.Core.Selection.utilization);
    ("area", num_int sel.Core.Selection.area);
    ( "assignment",
      J.Arr (List.map (fun (_, p) -> point_json p) sel.Core.Selection.assignment)
    ) ]

let front_json front =
  J.Arr
    (List.map
       (fun (p : Util.Pareto_front.point) ->
         J.Obj [ ("cost", num_int p.cost); ("value", J.Num p.value) ])
       front)

let edf_payload sel = J.Obj (status_field Engine.Guard.Exact :: selection_fields sel)

(* [spec] is the request's resource budget (the daemon's per-class
   deadline/fuel admission specs arrive here); without one the solver
   falls back to the process-wide default, exactly as before. *)
let payload ?spec ?(generator = Ise.Isegen.Exhaustive) op
    (ci : Instance.t) =
  let guard () =
    match spec with
    | Some s -> Engine.Guard.of_spec s
    | None -> Engine.Guard.default ()
  in
  match (op : Protocol.op) with
  | Edf -> edf_payload (Core.Edf_select.run ~budget:ci.budget (Instance.tasks ci))
  | Rms ->
    let guard = guard () in
    (match Core.Rms_select.run_guarded ~guard ~budget:ci.budget (Instance.tasks ci) with
     | Some sel, st ->
       J.Obj (status_field st :: ("feasible", J.Bool true) :: selection_fields sel)
     | None, st -> J.Obj [ status_field st; ("feasible", J.Bool false) ])
  | Pareto_exact ->
    let guard = guard () in
    let front, st =
      Pareto.Mo_select.exact_front_guarded ~guard ~base:(base_of ci)
        (Protocol.entities_of ci)
    in
    J.Obj [ status_field st; ("points", front_json front) ]
  | Pareto_approx ->
    let guard = guard () in
    let front =
      Pareto.Mo_select.approx_front ~guard ~eps:ci.Instance.eps
        ~base:(base_of ci) (Protocol.entities_of ci)
    in
    J.Obj [ status_field (Engine.Guard.status guard); ("points", front_json front) ]
  | Curve ->
    let cfg =
      { Ir.Cfg.name = "batch"; code = Ir.Cfg.block "b0" (Instance.dfg ci) }
    in
    let params = { curve_params with Ise.Curve.generator } in
    let curve = Ise.Curve.generate ~params cfg in
    J.Obj
      [ status_field Engine.Guard.Exact;
        ("base", num_int (Isa.Config.base_cycles curve));
        ( "points",
          J.Arr (Array.to_list (Array.map point_json (Isa.Config.points curve))) )
      ]

(* Rendering always goes payload → string → parse → render, on every
   path, so a memo-warm answer is byte-identical to a cold one by
   construction rather than by argument. *)
let respond req =
  let p = Protocol.prepare req in
  let s =
    J.to_string
      (payload ~generator:p.Protocol.req.generator p.Protocol.req.op
         p.Protocol.canonical)
  in
  Protocol.render_response p ~payload:(J.parse s)

(* The daemon's one-request path: probe the shared memo, compute and
   store on a miss.  Both arms render through string -> parse -> render
   like [respond], so a memo-warm daemon answer is byte-identical to a
   cold one and to the sequential reference. *)
let answer ?memo ?spec req =
  let p = Protocol.prepare req in
  let compute () =
    J.to_string
      (payload ?spec ~generator:p.Protocol.req.generator p.Protocol.req.op
         p.Protocol.canonical)
  in
  let s =
    match memo with
    | Some m -> fst (Engine.Memo.find_or_compute m ~key:p.Protocol.key compute)
    | None -> compute ()
  in
  Protocol.render_response p ~payload:(J.parse s)

type group_result = { entries : (string * string) list; g_memo_hits : int; g_swept : int }

let compute_group memo (ps : Protocol.prepared list) =
  Engine.Trace.with_span "batch.group"
    ~attrs:[ ("size", string_of_int (List.length ps)) ]
  @@ fun () ->
  Obs.Metrics.time "batch.group_s" @@ fun () ->
  let probed =
    List.map
      (fun (p : Protocol.prepared) ->
        (p, Option.bind memo (fun m -> Engine.Memo.find m ~key:p.Protocol.key)))
      ps
  in
  let missing = List.filter_map (fun (p, r) -> if r = None then Some p else None) probed in
  let computed, swept =
    match missing with
    | [] -> ([], 0)
    | (first : Protocol.prepared) :: _
      when first.Protocol.req.op = Protocol.Edf && List.length missing > 1 ->
      (* a budget sweep over one task set: one DP answers the group *)
      let budgets =
        List.map
          (fun (p : Protocol.prepared) -> p.Protocol.canonical.Instance.budget)
          missing
      in
      let sels =
        Core.Edf_select.run_sweep ~budgets
          (Instance.tasks first.Protocol.canonical)
      in
      Obs.Metrics.inc ~by:(float_of_int (List.length missing))
        "batch.sweep_budgets";
      (List.map2 (fun p sel -> (p, edf_payload sel)) missing sels, List.length missing)
    | _ ->
      ( List.map
          (fun (p : Protocol.prepared) ->
            ( p,
              payload ~generator:p.Protocol.req.generator p.Protocol.req.op
                p.Protocol.canonical ))
          missing,
        0 )
  in
  let fresh =
    List.map
      (fun ((p : Protocol.prepared), pl) -> (p.Protocol.key, J.to_string pl))
      computed
  in
  (match memo with
   | Some m -> List.iter (fun (k, s) -> Engine.Memo.store m ~key:k s) fresh
   | None -> ());
  let hits =
    List.filter_map
      (fun ((p : Protocol.prepared), r) ->
        Option.map (fun s -> (p.Protocol.key, s)) r)
      probed
  in
  { entries = hits @ fresh; g_memo_hits = List.length hits; g_swept = swept }

let run ?pool ?memo reqs =
  Engine.Trace.with_span "batch.run"
    ~attrs:[ ("requests", string_of_int (List.length reqs)) ]
  @@ fun () ->
  Obs.Metrics.time "batch.run_s" @@ fun () ->
  let prepared = List.map Protocol.prepare reqs in
  List.iter
    (fun (p : Protocol.prepared) ->
      Obs.Metrics.inc
        ~labels:[ ("op", Protocol.op_name p.Protocol.req.Protocol.op) ]
        "batch.requests")
    prepared;
  let seen = Hashtbl.create 64 in
  let dedup_hits = ref 0 in
  let uniq =
    List.filter
      (fun (p : Protocol.prepared) ->
        if Hashtbl.mem seen p.Protocol.key then begin
          incr dedup_hits;
          false
        end
        else begin
          Hashtbl.add seen p.Protocol.key ();
          true
        end)
      prepared
  in
  let group_tbl = Hashtbl.create 64 in
  let group_order = ref [] in
  List.iter
    (fun (p : Protocol.prepared) ->
      let g = p.Protocol.group in
      match Hashtbl.find_opt group_tbl g with
      | Some ps -> Hashtbl.replace group_tbl g (p :: ps)
      | None ->
        Hashtbl.add group_tbl g [ p ];
        group_order := g :: !group_order)
    uniq;
  let groups =
    List.map (fun g -> List.rev (Hashtbl.find group_tbl g)) (List.rev !group_order)
  in
  let outcomes =
    match pool with
    | Some p -> Engine.Parallel.Pool.map_result p (compute_group memo) groups
    | None -> List.map (Engine.Parallel.Pool.isolate (compute_group memo)) groups
  in
  let results =
    List.map2
      (fun g -> function
        | Ok r -> r
        | Error (err : Engine.Parallel.error) ->
          (* the parallel pool gave up on this group (worker faults);
             recompute it inline — same code, same bytes *)
          Obs.Metrics.inc "batch.group_recovered";
          Obs.Flight.record ~severity:Obs.Flight.Warn "batch.group_recovered"
            [ ("size", string_of_int (List.length g));
              ("error", err.Engine.Parallel.message) ];
          compute_group memo g)
      groups outcomes
  in
  let by_key = Hashtbl.create 64 in
  List.iter (fun r -> List.iter (fun (k, s) -> Hashtbl.replace by_key k s) r.entries) results;
  let lines =
    List.map
      (fun (p : Protocol.prepared) ->
        Protocol.render_response p
          ~payload:(J.parse (Hashtbl.find by_key p.Protocol.key)))
      prepared
  in
  (match memo with Some m -> Engine.Memo.observe_occupancy m | None -> ());
  let stats =
    { requests = List.length prepared;
      unique = List.length uniq;
      groups = List.length groups;
      dedup_hits = !dedup_hits;
      memo_hits = List.fold_left (fun a r -> a + r.g_memo_hits) 0 results;
      swept = List.fold_left (fun a r -> a + r.g_swept) 0 results }
  in
  Obs.Metrics.inc ~by:(float_of_int stats.unique) "batch.unique";
  Obs.Metrics.inc ~by:(float_of_int stats.groups) "batch.groups";
  Obs.Metrics.inc ~by:(float_of_int stats.dedup_hits) "batch.dedup_hits";
  Obs.Flight.record "batch.run"
    [ ("requests", string_of_int stats.requests);
      ("unique", string_of_int stats.unique);
      ("groups", string_of_int stats.groups);
      ("dedup_hits", string_of_int stats.dedup_hits);
      ("memo_hits", string_of_int stats.memo_hits);
      ("swept", string_of_int stats.swept) ];
  (lines, stats)

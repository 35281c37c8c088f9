type outcome = Pass | Fail of string | Skip of string

type t = {
  name : string;
  suite : string;
  run : Batch.Instance.t -> outcome;
}

let tol = 1e-9

(* Oracles enumerate the full assignment cross product; anything the
   generator emits is far below this, but shrink intermediates and
   replayed hand-edited repros go through the same guard. *)
let combo_cap = 20_000

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

let pairs_of (sel : Core.Selection.t) =
  List.map
    (fun ((t : Rt.Task.t), (p : Isa.Config.point)) -> (p.cycles, t.period))
    sel.assignment

let distinct_periods tasks =
  let periods = List.map (fun (t : Rt.Task.t) -> t.period) tasks in
  List.length periods = List.length (List.sort_uniq compare periods)

let with_tasks inst k =
  let tasks = Batch.Instance.tasks inst in
  if Oracle.combination_count tasks > combo_cap then
    Skip "assignment space too large for the oracle"
  else k tasks

(* Belt and braces on top of [combo_cap]: the oracles run under a
   generous deterministic fuel budget, so an adversarial instance that
   slips past the size check (a hand-edited repro, a pathological
   shrink intermediate) reads as a skip instead of hanging the suite. *)
let oracle_fuel = 5_000_000

let with_oracle k =
  match k (Engine.Guard.create ~fuel:oracle_fuel ()) with
  | exception Engine.Guard.Exhausted _ -> Skip "oracle fuel budget exhausted"
  | (outcome : outcome) -> outcome

(* ---------------------------------------------------------------- *)
(* select                                                           *)
(* ---------------------------------------------------------------- *)

let edf_against ~name solver =
  { name;
    suite = "select";
    run =
      (fun inst ->
        with_tasks inst @@ fun tasks ->
        with_oracle @@ fun og ->
        let got = solver ~budget:inst.budget tasks in
        let want = Oracle.edf_best ~guard:og ~budget:inst.budget tasks in
        if got.Core.Selection.area > inst.budget then
          failf "selection area %d exceeds budget %d" got.Core.Selection.area
            inst.budget
        else if
          Float.abs (got.Core.Selection.utilization -. want.Core.Selection.utilization)
          > tol
        then
          failf "utilization %.9f, oracle %.9f at budget %d"
            got.Core.Selection.utilization want.Core.Selection.utilization
            inst.budget
        else Pass) }

let edf_dp_matches_oracle =
  edf_against ~name:"edf_dp_matches_oracle" Core.Edf_select.run

let rms_bnb_matches_oracle =
  { name = "rms_bnb_matches_oracle";
    suite = "select";
    run =
      (fun inst ->
        with_tasks inst @@ fun tasks ->
        if not (distinct_periods tasks) then Skip "duplicate periods"
        else
          with_oracle @@ fun og ->
          match
            (Core.Rms_select.run ~budget:inst.budget tasks,
             Oracle.rms_best ~guard:og ~budget:inst.budget tasks)
          with
          | None, None -> Pass
          | Some got, Some want ->
            if got.Core.Selection.area > inst.budget then
              failf "selection area %d exceeds budget %d"
                got.Core.Selection.area inst.budget
            else if
              Float.abs
                (got.Core.Selection.utilization -. want.Core.Selection.utilization)
              > tol
            then
              failf "utilization %.9f, oracle %.9f at budget %d"
                got.Core.Selection.utilization want.Core.Selection.utilization
                inst.budget
            else Pass
          | Some got, None ->
            failf "B&B claims schedulable (U=%.9f), oracle finds none"
              got.Core.Selection.utilization
          | None, Some want ->
            failf "B&B claims infeasible, oracle schedules at U=%.9f"
              want.Core.Selection.utilization) }

let heuristics_bounded_by_optimal =
  { name = "heuristics_bounded_by_optimal";
    suite = "select";
    run =
      (fun inst ->
        with_tasks inst @@ fun tasks ->
        with_oracle @@ fun og ->
        let opt = Oracle.edf_best ~guard:og ~budget:inst.budget tasks in
        let rec check = function
          | [] -> Pass
          | strategy :: rest ->
            let h = Core.Heuristics.run strategy ~budget:inst.budget tasks in
            if h.Core.Selection.area > inst.budget then
              failf "%s spends %d over budget %d"
                (Core.Heuristics.name strategy)
                h.Core.Selection.area inst.budget
            else if
              opt.Core.Selection.utilization
              > h.Core.Selection.utilization +. tol
            then
              failf "%s beats the optimum: %.9f < %.9f"
                (Core.Heuristics.name strategy)
                h.Core.Selection.utilization opt.Core.Selection.utilization
            else check rest
        in
        check Core.Heuristics.all) }

let edf_budget_monotone =
  { name = "edf_budget_monotone";
    suite = "select";
    run =
      (fun inst ->
        let tasks = Batch.Instance.tasks inst in
        let u b = (Core.Edf_select.run ~budget:b tasks).Core.Selection.utilization in
        let budgets =
          [ 0; inst.budget; inst.budget + 1; (2 * inst.budget) + 1 ]
        in
        let us = List.map u budgets in
        let rec non_increasing = function
          | a :: (b :: _ as rest) ->
            if a < b -. tol then
              failf "more area raised utilization: %.9f then %.9f" a b
            else non_increasing rest
          | _ -> Pass
        in
        non_increasing us) }

(* Soundness under exhaustion: starve the B&B of fuel and check the
   anytime contract — whatever comes back is a genuine feasible
   schedule no better than the true optimum, and a claimed [Exact]
   status really is the optimum.  Fuel varies with the instance so
   exhaustion lands at many different search depths. *)
let rms_guarded_partial_sound =
  { name = "rms_guarded_partial_sound";
    suite = "select";
    run =
      (fun inst ->
        with_tasks inst @@ fun tasks ->
        if not (distinct_periods tasks) then Skip "duplicate periods"
        else
          with_oracle @@ fun og ->
          let want = Oracle.rms_best ~guard:og ~budget:inst.budget tasks in
          let fuel = 1 + (inst.budget mod 17) in
          let guard = Engine.Guard.create ~fuel () in
          let got, status =
            Core.Rms_select.run_guarded ~guard ~budget:inst.budget tasks
          in
          match (status, got) with
          | Engine.Guard.Exact, None ->
            (match want with
             | None -> Pass
             | Some w ->
               failf "Exact status claims infeasible, oracle schedules at U=%.9f"
                 w.Core.Selection.utilization)
          | Engine.Guard.Exact, Some g ->
            (match want with
             | None ->
               failf "Exact status claims schedulable (U=%.9f), oracle finds none"
                 g.Core.Selection.utilization
             | Some w ->
               if
                 Float.abs
                   (g.Core.Selection.utilization -. w.Core.Selection.utilization)
                 > tol
               then
                 failf "Exact status but utilization %.9f differs from optimum %.9f"
                   g.Core.Selection.utilization w.Core.Selection.utilization
               else Pass)
          | Engine.Guard.Partial _, None ->
            (* ran out before the first incumbent — allowed *)
            Pass
          | Engine.Guard.Partial _, Some g ->
            if g.Core.Selection.area > inst.budget then
              failf "partial incumbent spends %d over budget %d"
                g.Core.Selection.area inst.budget
            else if not (Oracle.response_time_schedulable (pairs_of g)) then
              Fail "partial incumbent is not RMS-schedulable"
            else (
              match want with
              | None ->
                Fail
                  "partial incumbent exists but the oracle finds no schedulable \
                   assignment"
              | Some w ->
                if
                  g.Core.Selection.utilization
                  < w.Core.Selection.utilization -. tol
                then
                  failf "partial incumbent beats the true optimum: %.9f < %.9f"
                    g.Core.Selection.utilization w.Core.Selection.utilization
                else Pass)) }

let rms_pruning_invariant =
  { name = "rms_pruning_invariant";
    suite = "select";
    run =
      (fun inst ->
        let tasks = Batch.Instance.tasks inst in
        if not (distinct_periods tasks) then Skip "duplicate periods"
        else begin
          let outcomes =
            List.map
              (fun (use_bound, fastest_first) ->
                fst
                  (Core.Rms_select.run_instrumented ~use_bound ~fastest_first
                     ~budget:inst.budget tasks))
              [ (true, true); (true, false); (false, true); (false, false) ]
          in
          match outcomes with
          | reference :: rest ->
            let same = function
              | None, None -> true
              | Some (a : Core.Selection.t), Some (b : Core.Selection.t) ->
                Float.abs (a.utilization -. b.utilization) <= tol
              | _ -> false
            in
            if List.for_all (fun o -> same (reference, o)) rest then Pass
            else Fail "disabling pruning changed the optimum"
          | [] -> Pass
        end) }

(* ---------------------------------------------------------------- *)
(* sched                                                            *)
(* ---------------------------------------------------------------- *)

let rms_test_matches_response_time =
  { name = "rms_test_matches_response_time";
    suite = "sched";
    run =
      (fun inst ->
        let tasks = Batch.Instance.tasks inst in
        if not (distinct_periods tasks) then Skip "duplicate periods"
        else begin
          let software = pairs_of (Core.Selection.software tasks) in
          let full_custom =
            List.map
              (fun (t : Rt.Task.t) ->
                (Isa.Config.min_cycles t.curve, t.period))
              tasks
          in
          let rec check = function
            | [] -> Pass
            | (label, pairs) :: rest ->
              let exact = Rt.Sched.rms_schedulable pairs in
              let rta = Oracle.response_time_schedulable pairs in
              if exact <> rta then
                failf "%s: Bini–Buttazzo says %b, response-time analysis %b"
                  label exact rta
              else check rest
          in
          check [ ("software", software); ("full-custom", full_custom) ]
        end) }

(* ---------------------------------------------------------------- *)
(* pareto                                                           *)
(* ---------------------------------------------------------------- *)

(* One entity per task: choose a configuration, delta = cycles saved,
   cost = area — the inter-task workload view of Chapter 4. *)
let entities_of inst =
  List.map
    (fun (ts : Batch.Instance.task_spec) ->
      List.map
        (fun (p : Batch.Instance.curve_point) ->
          { Pareto.Mo_select.delta = float_of_int (ts.base - p.cycles);
            cost = p.area })
        ts.points
      |> Array.of_list)
    inst.Batch.Instance.tasks

let base_of inst =
  Util.Numeric.sum_byf
    (fun (ts : Batch.Instance.task_spec) -> float_of_int ts.base)
    inst.Batch.Instance.tasks

let fronts_agree exact oracle =
  List.length exact = List.length oracle
  && List.for_all2
       (fun (a : Util.Pareto_front.point) (b : Util.Pareto_front.point) ->
         a.cost = b.cost && Float.abs (a.value -. b.value) <= 1e-6)
       exact oracle

let exact_front_matches_oracle =
  { name = "exact_front_matches_oracle";
    suite = "pareto";
    run =
      (fun inst ->
        let entities = entities_of inst in
        let base = base_of inst in
        with_oracle @@ fun og ->
        let exact = Pareto.Mo_select.exact_front ~base entities in
        let oracle = Oracle.pareto_exhaustive ~guard:og ~base entities in
        if fronts_agree exact oracle then Pass
        else
          failf "DP front has %d points, enumeration %d (or values differ)"
            (List.length exact) (List.length oracle)) }

let approx_front_eps_covers =
  { name = "approx_front_eps_covers";
    suite = "pareto";
    run =
      (fun inst ->
        let entities = entities_of inst in
        let base = base_of inst in
        let exact = Pareto.Mo_select.exact_front ~base entities in
        let approx = Pareto.Mo_select.approx_front ~eps:inst.eps ~base entities in
        if not (Util.Pareto_front.is_front approx) then
          Fail "approximate output is not a valid Pareto front"
        else if not (Util.Pareto_front.eps_covers ~eps:inst.eps ~exact approx)
        then
          failf "FPTAS output misses the eps=%.3f cover (%d exact, %d approx)"
            inst.eps (List.length exact) (List.length approx)
        else Pass) }

let inter_stage_approx_covers =
  { name = "inter_stage_approx_covers";
    suite = "pareto";
    run =
      (fun inst ->
        let curves =
          List.map
            (fun (t : Rt.Task.t) ->
              { Pareto.Stages.Inter.period = t.period;
                workload = t.wcet;
                front =
                  Array.to_list (Isa.Config.points t.curve)
                  |> List.map (fun (p : Isa.Config.point) ->
                         { Util.Pareto_front.cost = p.area;
                           value = float_of_int p.cycles }) })
            (Batch.Instance.tasks inst)
        in
        let exact = Pareto.Stages.Inter.exact curves in
        let approx = Pareto.Stages.Inter.approx ~eps:inst.eps curves in
        if Util.Pareto_front.eps_covers ~eps:inst.eps ~exact approx then Pass
        else
          failf "inter-stage FPTAS misses the eps=%.3f cover (%d exact, %d approx)"
            inst.eps (List.length exact) (List.length approx)) }

(* The production kernel against the reference copy of the DP it
   replaced: same answers with the same float bits, the same partial
   front and fuel under a fuel-limited guard. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_points a b =
  List.length a = List.length b
  && List.for_all2
       (fun (p : Util.Pareto_front.point) (q : Util.Pareto_front.point) ->
         p.cost = q.cost && same_bits p.value q.value)
       a b

let same_point_option a b =
  match (a, b) with
  | None, None -> true
  | Some p, Some q -> same_points [ p ] [ q ]
  | _ -> false

let rec first_failure = function
  | [] -> Pass
  | check :: rest -> (match check () with Pass -> first_failure rest | o -> o)

let kernel_matches_reference =
  { name = "kernel_matches_reference";
    suite = "pareto";
    run =
      (fun inst ->
        let module M = Pareto.Mo_select in
        let module R = Oracle.Pareto_ref in
        let base = base_of inst in
        let budget = inst.Batch.Instance.budget in
        (* [Batch.Instance.eps] spans [0.05, 1]; tripling it reaches 3 *)
        let epsilons = [ inst.Batch.Instance.eps; 3. *. inst.Batch.Instance.eps ] in
        let unlimited () = Engine.Guard.create () in
        let against entities =
          let exact_under fuel () =
            let g_new = Engine.Guard.create ~fuel () in
            let g_ref = Engine.Guard.create ~fuel () in
            let got, st = M.exact_front_guarded ~guard:g_new ~base entities in
            let want, st_ref = R.exact_front_guarded ~guard:g_ref ~base entities in
            if not (same_points got want) then
              failf "exact front under fuel %d: %d points, reference %d" fuel
                (List.length got) (List.length want)
            else if st <> st_ref then
              failf "exact front under fuel %d: status %s, reference %s" fuel
                (Engine.Guard.string_of_status st)
                (Engine.Guard.string_of_status st_ref)
            else if Engine.Guard.used g_new <> Engine.Guard.used g_ref then
              failf "exact front under fuel %d: used %d fuel, reference %d" fuel
                (Engine.Guard.used g_new) (Engine.Guard.used g_ref)
            else Pass
          in
          let exact () =
            let got, st = M.exact_front_guarded ~guard:(unlimited ()) ~base entities in
            let want, _ = R.exact_front_guarded ~guard:(unlimited ()) ~base entities in
            if st <> Engine.Guard.Exact then Fail "unlimited exact front is partial"
            else if not (same_points got want) then
              failf "exact front: %d points, reference %d" (List.length got)
                (List.length want)
            else Pass
          in
          let approx eps () =
            let guard = unlimited () in
            let got = M.approx_front ~guard ~eps ~base entities in
            let want = R.approx_front ~eps ~base entities in
            if Engine.Guard.status guard <> Engine.Guard.Exact then
              failf "unlimited approx front at eps=%.3f is partial" eps
            else if not (same_points got want) then
              failf "approx front at eps=%.3f: %d points, reference %d" eps
                (List.length got) (List.length want)
            else Pass
          in
          (* The reference has no guard: a fuel-limited run must either
             finish and match it, or stop with a front of achievable
             points, reproducibly. *)
          let approx_under fuel eps () =
            let run () =
              let guard = Engine.Guard.create ~fuel () in
              let front = M.approx_front ~guard ~eps ~base entities in
              (front, Engine.Guard.status guard, Engine.Guard.used guard)
            in
            let front, st, used = run () in
            let front', st', used' = run () in
            if not (same_points front front' && st = st' && used = used') then
              failf "approx front under fuel %d is not reproducible" fuel
            else
              match st with
              | Engine.Guard.Exact ->
                if same_points front (R.approx_front ~eps ~base entities) then Pass
                else failf "approx front under fuel %d finished but diverges" fuel
              | Engine.Guard.Partial _ ->
                if not (Util.Pareto_front.is_front front) then
                  failf "partial approx front under fuel %d is not a front" fuel
                else if
                  not
                    (List.for_all
                       (fun (p : Util.Pareto_front.point) ->
                         R.solve_at_cost ~cost:p.cost ~base entities <= p.value +. tol)
                       front)
                then
                  failf "partial approx front under fuel %d has an unachievable point"
                    fuel
                else Pass
          in
          let gap eps cost_bound value_bound () =
            let got = M.gap ~eps ~cost_bound ~value_bound ~base entities in
            let want =
              if cost_bound <> 0 then R.gap ~eps ~cost_bound ~value_bound ~base entities
              else
                (* the reference answers None here; the exact zero-cost
                   optimum is what a zero bound admits *)
                let v = R.solve_at_cost ~cost:0 ~base entities in
                if v <= value_bound +. 1e-9 then
                  Some { Util.Pareto_front.cost = 0; value = v }
                else None
            in
            if same_point_option got want then Pass
            else
              failf "gap at eps=%.3f cost_bound=%d value_bound=%h diverges" eps
                cost_bound value_bound
          in
          let solve cost () =
            let got = M.solve_at_cost ~cost ~base entities in
            let want = R.solve_at_cost ~cost ~base entities in
            if same_bits got want then Pass
            else failf "solve_at_cost %d: %h, reference %h" cost got want
          in
          let value_bounds =
            let front, _ = R.exact_front_guarded ~guard:(unlimited ()) ~base entities in
            List.map (fun (p : Util.Pareto_front.point) -> p.value) front
            @ [ base -. 1e6 ]
          in
          [ exact; exact_under (1 + (3 * budget)); solve budget; solve 0; solve (-1) ]
          @ List.concat_map
              (fun eps ->
                [ approx eps; approx_under (1 + (50 * budget)) eps ]
                @ List.concat_map
                    (fun w -> [ gap eps budget w; gap eps 0 w ])
                    value_bounds)
              epsilons
        in
        (* Rounding the deltas to multiples of 16 makes equal-delta
           options common, which exercises the strict tie-break. *)
        let coarse =
          List.map
            (Array.map (fun (o : M.option_) ->
                 { o with M.delta = 16. *. Float.round (o.M.delta /. 16.) }))
            (entities_of inst)
        in
        first_failure (against (entities_of inst) @ against coarse)) }

(* ---------------------------------------------------------------- *)
(* curve                                                            *)
(* ---------------------------------------------------------------- *)

let fuzz_params = { Ise.Curve.small with sweep_points = 8 }

let generated_curve_well_formed =
  { name = "generated_curve_well_formed";
    suite = "curve";
    run =
      (fun inst ->
        let dfg = Batch.Instance.dfg inst in
        let cfg =
          { Ir.Cfg.name = "fuzz"; code = Ir.Cfg.block "b0" dfg }
        in
        match Ise.Curve.generate ~params:fuzz_params cfg with
        | exception e ->
          failf "curve generation raised %s" (Printexc.to_string e)
        | curve ->
          let pts = Isa.Config.points curve in
          let ok = ref Pass in
          if pts.(0).Isa.Config.area <> 0 then
            ok := Fail "first curve point is not the software configuration";
          for i = 1 to Array.length pts - 1 do
            if !ok = Pass
               && not
                    (pts.(i).Isa.Config.area > pts.(i - 1).Isa.Config.area
                     && pts.(i).Isa.Config.cycles < pts.(i - 1).Isa.Config.cycles)
            then
              ok :=
                failf "curve not strictly monotone at point %d: (%d,%d) after (%d,%d)"
                  i pts.(i).Isa.Config.area pts.(i).Isa.Config.cycles
                  pts.(i - 1).Isa.Config.area pts.(i - 1).Isa.Config.cycles
          done;
          (* more area can never buy a slower configuration *)
          let max_area = Isa.Config.max_area curve in
          let prev = ref (Isa.Config.best_at curve 0) in
          for b = 1 to max_area do
            let p = Isa.Config.best_at curve b in
            if !ok = Pass && p.Isa.Config.cycles > !prev.Isa.Config.cycles then
              ok := failf "best_at %d slower than best_at %d" b (b - 1);
            prev := p
          done;
          !ok) }

let candidates_respect_constraints =
  { name = "candidates_respect_constraints";
    suite = "curve";
    run =
      (fun inst ->
        let dfg = Batch.Instance.dfg inst in
        let constraints = Isa.Hw_model.default_constraints in
        let cands = Ise.Enumerate.connected ~constraints dfg in
        let rec check = function
          | [] -> Pass
          | (ci : Isa.Custom_inst.t) :: rest ->
            if ci.inputs > constraints.Isa.Hw_model.max_inputs then
              failf "candidate with %d inputs (limit %d)" ci.inputs
                constraints.Isa.Hw_model.max_inputs
            else if ci.outputs > constraints.Isa.Hw_model.max_outputs then
              failf "candidate with %d outputs (limit %d)" ci.outputs
                constraints.Isa.Hw_model.max_outputs
            else if Isa.Custom_inst.gain ci <= 0 then
              failf "candidate with non-positive gain %d" (Isa.Custom_inst.gain ci)
            else if not (Ir.Dfg.is_convex dfg ci.nodes) then
              Fail "non-convex candidate emitted"
            else if not (Ir.Dfg.is_connected dfg ci.nodes) then
              Fail "disconnected candidate emitted"
            else if not (Ir.Dfg.all_valid dfg ci.nodes) then
              Fail "candidate contains an ISE-ineligible operation"
            else begin
              match Isa.Custom_inst.check ~constraints dfg ci.nodes with
              | Ok _ -> check rest
              | Error r ->
                failf "candidate fails re-validation: %s"
                  (Format.asprintf "%a" Isa.Custom_inst.pp_rejection r)
            end
        in
        check cands) }

(* ---------------------------------------------------------------- *)
(* isegen                                                           *)
(* ---------------------------------------------------------------- *)

(* Instance-derived ISEGEN tuning: the seed varies with the instance so
   three fuzz seeds exercise many restart samplings, while every walk
   stays cheap enough for a 200-case budget. *)
let isegen_params_of inst =
  { Ise.Isegen.default_params with
    Ise.Isegen.seed = 1 + inst.Batch.Instance.budget;
    restarts = 16;
    max_moves = 16 }

(* Structural identity of a candidate, independent of Bitset mutability
   and of evaluation backend bookkeeping. *)
let ci_sig (ci : Isa.Custom_inst.t) =
  (Util.Bitset.elements ci.nodes, Isa.Custom_inst.gain ci, ci.area)

let ci_keys cis =
  List.sort compare
    (List.map (fun (ci : Isa.Custom_inst.t) -> Util.Bitset.elements ci.nodes) cis)

let legal_candidate dfg constraints (ci : Isa.Custom_inst.t) =
  if ci.inputs > constraints.Isa.Hw_model.max_inputs then
    failf "candidate with %d inputs (limit %d)" ci.inputs
      constraints.Isa.Hw_model.max_inputs
  else if ci.outputs > constraints.Isa.Hw_model.max_outputs then
    failf "candidate with %d outputs (limit %d)" ci.outputs
      constraints.Isa.Hw_model.max_outputs
  else if Isa.Custom_inst.gain ci <= 0 then
    failf "candidate with non-positive gain %d" (Isa.Custom_inst.gain ci)
  else if not (Ir.Dfg.is_convex dfg ci.nodes) then
    Fail "non-convex candidate emitted"
  else if not (Ir.Dfg.is_connected dfg ci.nodes) then
    Fail "disconnected candidate emitted"
  else if not (Ir.Dfg.all_valid dfg ci.nodes) then
    Fail "candidate contains an ISE-ineligible operation"
  else
    match Isa.Custom_inst.check ~constraints dfg ci.nodes with
    | Ok _ -> Pass
    | Error r ->
      failf "candidate fails re-validation: %s"
        (Format.asprintf "%a" Isa.Custom_inst.pp_rejection r)

let isegen_candidates_legal =
  { name = "isegen_candidates_legal";
    suite = "isegen";
    run =
      (fun inst ->
        let dfg = Batch.Instance.dfg inst in
        let constraints = Isa.Hw_model.default_constraints in
        let cands =
          Ise.Isegen.generate ~constraints ~params:(isegen_params_of inst) dfg
        in
        first_failure
          (List.map
             (fun (ci : Isa.Custom_inst.t) () ->
               match legal_candidate dfg constraints ci with
               | Pass ->
                 (* uniform re-evaluation is the identity; any backend's
                    costs must agree with its own set-level tables *)
                 let u = Isa.Custom_inst.evaluate_with Isa.Hw_model.uniform dfg ci in
                 let r = Isa.Custom_inst.evaluate_with Isa.Hw_model.riscv dfg ci in
                 if ci_sig u <> ci_sig ci then
                   Fail "uniform re-evaluation changed a candidate"
                 else if
                   r.Isa.Custom_inst.hw_cycles
                   <> Isa.Hw_model.set_hw_cycles_with Isa.Hw_model.riscv dfg
                        ci.nodes
                   || r.Isa.Custom_inst.area
                      <> Isa.Hw_model.set_area_with Isa.Hw_model.riscv dfg
                           ci.nodes
                 then Fail "riscv re-evaluation disagrees with its cost tables"
                 else if
                   Isa.Custom_inst.gain r
                   <> r.Isa.Custom_inst.sw_cycles - r.Isa.Custom_inst.hw_cycles
                 then Fail "gain inconsistent after re-evaluation"
                 else Pass
               | outcome -> outcome)
             cands)) }

(* The differential heart of the suite: on small DFGs the uncapped
   enumerator is a complete oracle, and ISEGEN must find at least 90 %
   of the best candidate's gain (in practice it finds the optimum). *)
let isegen_matches_oracle_on_small =
  { name = "isegen_matches_oracle_on_small";
    suite = "isegen";
    run =
      (fun inst ->
        let dfg = Batch.Instance.dfg inst in
        let n = Ir.Dfg.node_count dfg in
        if n > 12 then Skip "DFG too large for the exhaustive oracle"
        else begin
          let oracle_budget =
            { Ise.Enumerate.max_size = n;
              max_explored = 200_000;
              max_candidates = 20_000 }
          in
          let guard = Engine.Guard.create ~fuel:oracle_fuel () in
          let oracle, saturation =
            Ise.Enumerate.connected_full ~guard ~budget:oracle_budget dfg
          in
          match saturation with
          | Some _ -> Skip "oracle enumeration saturated"
          | None ->
            let best =
              List.fold_left
                (fun acc ci -> max acc (Isa.Custom_inst.gain ci))
                0 oracle
            in
            let mine =
              Ise.Isegen.generate ~params:(isegen_params_of inst) dfg
            in
            let got =
              match mine with [] -> 0 | ci :: _ -> Isa.Custom_inst.gain ci
            in
            if best = 0 then
              if mine = [] then Pass
              else
                failf "oracle finds no feasible candidate but isegen emits %d"
                  (List.length mine)
            else if 10 * got < 9 * best then
              failf "isegen best gain %d < 90%% of oracle best %d (%d nodes)"
                got best n
            else Pass
        end) }

let isegen_deterministic =
  { name = "isegen_deterministic";
    suite = "isegen";
    run =
      (fun inst ->
        let dfg = Batch.Instance.dfg inst in
        let params = isegen_params_of inst in
        let a = Ise.Isegen.generate ~params dfg in
        let b = Ise.Isegen.generate ~params dfg in
        if List.map ci_sig a <> List.map ci_sig b then
          Fail "two runs with identical params diverge"
        else Pass) }

let isegen_guard_anytime =
  { name = "isegen_guard_anytime";
    suite = "isegen";
    run =
      (fun inst ->
        let dfg = Batch.Instance.dfg inst in
        let constraints = Isa.Hw_model.default_constraints in
        let params = isegen_params_of inst in
        let full = Ise.Isegen.generate ~constraints ~params dfg in
        let fuel = 1 + (inst.Batch.Instance.budget mod 60) in
        let guard = Engine.Guard.create ~fuel () in
        let partial = Ise.Isegen.generate ~guard ~constraints ~params dfg in
        match
          first_failure
            (List.map (fun ci () -> legal_candidate dfg constraints ci) partial)
        with
        | Pass ->
          (match Engine.Guard.status guard with
           | Engine.Guard.Exact ->
             if List.map ci_sig partial <> List.map ci_sig full then
               Fail "guard never fired yet output differs from unguarded run"
             else Pass
           | Engine.Guard.Partial _ ->
             (* truncation evaluates a prefix of the full run's move
                sequence, so the anytime pool is a subset of the full
                pool *)
             let full_keys = ci_keys full in
             if
               List.for_all
                 (fun k -> List.mem k full_keys)
                 (ci_keys partial)
             then Pass
             else Fail "anytime cut emitted a candidate the full run lacks")
        | outcome -> outcome) }

let hw_backend_area_monotone =
  { name = "hw_backend_area_monotone";
    suite = "isegen";
    run =
      (fun inst ->
        let dfg = Batch.Instance.dfg inst in
        let n = Ir.Dfg.node_count dfg in
        let valid =
          List.filter (Ir.Dfg.valid_node dfg) (List.init n (fun i -> i))
        in
        if valid = [] then Skip "no ISE-eligible operation"
        else begin
          let full = Util.Bitset.of_list n valid in
          first_failure
            (List.concat_map
               (fun (b : Isa.Hw_model.backend) ->
                 let whole = Isa.Hw_model.set_op_area_with b dfg full in
                 let monotone =
                   List.map
                     (fun v () ->
                       let sub = Util.Bitset.copy full in
                       Util.Bitset.clear sub v;
                       if Isa.Hw_model.set_op_area_with b dfg sub > whole then
                         failf "%s: removing node %d raised operator area"
                           b.Isa.Hw_model.name v
                       else Pass)
                     valid
                 in
                 let port_floor () =
                   if Isa.Hw_model.set_area_with b dfg full < whole then
                     failf "%s: port-aware area below operator area"
                       b.Isa.Hw_model.name
                   else Pass
                 in
                 let legacy_agrees () =
                   if
                     b.Isa.Hw_model.name = "uniform"
                     && Isa.Hw_model.set_area_with b dfg full
                        <> Isa.Hw_model.set_area dfg full
                   then Fail "uniform backend disagrees with legacy set_area"
                   else Pass
                 in
                 port_floor :: legacy_agrees :: monotone)
               Isa.Hw_model.backends)
        end) }

let auto_dispatch_consistent =
  { name = "auto_dispatch_consistent";
    suite = "isegen";
    run =
      (fun inst ->
        let dfg = Batch.Instance.dfg inst in
        (* a budget tight enough that many instances saturate, so both
           arms of the dispatch are exercised *)
        let budget =
          { Ise.Enumerate.max_size = 3;
            max_explored = 8 + (inst.Batch.Instance.budget mod 40);
            max_candidates = 6 }
        in
        let isegen = isegen_params_of inst in
        let exhaustive, saturation =
          Ise.Enumerate.connected_full ~budget dfg
        in
        let auto =
          Ise.Select.generate_candidates ~budget ~generator:Ise.Isegen.Auto
            ~isegen dfg
        in
        let expected =
          match saturation with
          | None -> exhaustive
          | Some _ -> Ise.Isegen.generate ~params:isegen dfg
        in
        if List.map ci_sig auto <> List.map ci_sig expected then
          failf "auto dispatch diverges from the %s arm"
            (match saturation with None -> "exhaustive" | Some _ -> "isegen")
        else Pass) }

(* Exhaustive enumeration and ISEGEN against their references
   ({!Oracle.Enumerate_ref}, {!Oracle.Isegen_ref}): equal candidate
   lists in order with every field, equal saturation and equal fuel
   use.  The budgets are small enough that both caps saturate, some
   runs restrict the search to an [allowed] subset and some run under
   a fuel limit. *)
let identification_matches_reference =
  { name = "identification_matches_reference";
    suite = "isegen";
    run =
      (fun inst ->
        let dfg = Batch.Instance.dfg inst in
        let n = Ir.Dfg.node_count dfg in
        let constraints = Isa.Hw_model.default_constraints in
        let prng =
          Util.Prng.create (Hashtbl.hash (inst.Batch.Instance.budget, inst.Batch.Instance.dfg))
        in
        let draw_allowed () =
          if Util.Prng.bool prng then None
          else
            Some
              (Util.Bitset.of_list n
                 (List.filter (fun _ -> Util.Prng.int prng 4 > 0) (List.init n Fun.id)))
        in
        let guards () =
          let fuel =
            if Util.Prng.bool prng then None else Some (Util.Prng.in_range prng 1 300)
          in
          (Engine.Guard.create ?fuel (), Engine.Guard.create ?fuel ())
        in
        let same_list what got want =
          if List.length got <> List.length want then
            failf "%s: %d candidates, reference %d" what (List.length got)
              (List.length want)
          else
            match
              List.find_index (fun (a, b) -> a <> b) (List.combine got want)
            with
            | Some i -> failf "%s: candidate %d differs from the reference" what i
            | None -> Pass
        in
        let same_fuel what g g_ref =
          if Engine.Guard.used g = Engine.Guard.used g_ref then Pass
          else
            failf "%s: used %d fuel, reference %d" what (Engine.Guard.used g)
              (Engine.Guard.used g_ref)
        in
        let sat_name = function
          | None -> "none"
          | Some s -> Ise.Enumerate.saturation_reason s
        in
        let enumerate () =
          let budget =
            { Ise.Enumerate.max_size = Util.Prng.in_range prng 1 (n + 1);
              max_explored = Util.Prng.in_range prng 5 200;
              max_candidates = Util.Prng.in_range prng 1 60 }
          in
          let allowed = draw_allowed () in
          let g, g_ref = guards () in
          let got, sat =
            Ise.Enumerate.connected_full ~guard:g ~constraints ~budget ?allowed dfg
          in
          let want, sat_ref =
            Oracle.Enumerate_ref.connected_full ~guard:g_ref ~constraints ~budget
              ?allowed dfg
          in
          first_failure
            [ (fun () -> same_list "enumeration" got want);
              (fun () ->
                if sat = sat_ref then Pass
                else
                  failf "enumeration saturation %s, reference %s" (sat_name sat)
                    (sat_name sat_ref));
              (fun () -> same_fuel "enumeration" g g_ref) ]
        in
        let isegen () =
          let params =
            { (isegen_params_of inst) with
              Ise.Isegen.max_size = Util.Prng.in_range prng 1 14;
              restarts = Util.Prng.in_range prng 1 16;
              merge_pool = Util.Prng.in_range prng 0 24 }
          in
          let allowed = draw_allowed () in
          let g, g_ref = guards () in
          let got = Ise.Isegen.generate ~guard:g ~constraints ~params ?allowed dfg in
          let want =
            Oracle.Isegen_ref.generate ~guard:g_ref ~constraints ~params ?allowed dfg
          in
          first_failure
            [ (fun () -> same_list "isegen" got want);
              (fun () -> same_fuel "isegen" g g_ref) ]
        in
        first_failure (List.concat_map (fun _ -> [ enumerate; isegen ]) [ 1; 2; 3 ]))
  }

(* ---------------------------------------------------------------- *)
(* reconfig                                                         *)
(* ---------------------------------------------------------------- *)

(* The Chapter 6-7 instances are drawn from a generator seeded by the
   whole instance, so every fuzz seed reaches many of them. *)
let chapter_prng inst =
  Util.Prng.create (Hashtbl.hash (Util.Json.to_string (Batch.Instance.to_json inst)))

(* A Table 6.1 synthetic problem of 2-9 loops, with the capacity and
   the reload cost varied.  One draw in three replaces every version's
   gain by its rank, so equal totals, and with them the solvers' tie
   rules, are common. *)
let synthetic_problem prng ~max_loops =
  let loops = Util.Prng.in_range prng 2 max_loops in
  let p = Reconfig.Synthetic.generate ~seed:(Util.Prng.int prng 100_000) ~loops in
  let unit = Util.Prng.choose prng [| 0; 0; 1; 700 |] in
  let ranked (l : Reconfig.Problem.hot_loop) =
    Reconfig.Problem.loop l.name
      (List.tl (Array.to_list (Array.mapi (fun j (v : Reconfig.Problem.version) -> (j * unit, v.area)) l.versions)))
  in
  { p with
    Reconfig.Problem.loops = (if unit = 0 then p.loops else List.map ranked p.loops);
    max_area = Util.Prng.choose prng [| 40; 128; 256 |];
    reconfig_cost = Util.Prng.choose prng [| 0; 1; 500; 5000 |] }

(* A Figure 7.4 task set of 2-6 tasks over real kernel curves; one draw
   in three gives every task one period and each version its rank as
   gain, so that equal utilisations are common. *)
let chapter7_model prng =
  let m =
    Experiments.Ch7.instance ~seed:(Util.Prng.int prng 100_000)
      ~n_tasks:(Util.Prng.in_range prng 2 6)
      ~max_area:(Util.Prng.choose prng [| 100; 150; 200; 300; 400; 600 |])
      ~reconfig_cost:(Util.Prng.choose prng [| 0; 500; 2000 |])
      ~u:(Util.Prng.choose prng [| 0.9; 1.08; 1.1 |])
  in
  if Util.Prng.int prng 3 > 0 then m
  else
    let ranked (tk : Rtreconfig.Model.task) =
      Rtreconfig.Model.task ~name:tk.name ~period:64 ~wcet:16
        (List.tl
           (Array.to_list
              (Array.mapi (fun j (v : Rtreconfig.Model.version) -> (j, v.area)) tk.versions)))
    in
    { m with
      Rtreconfig.Model.tasks = List.map ranked m.tasks;
      reconfig_cost = Util.Prng.choose prng [| 0; 1; 8 |] }

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every Chapter 6 algorithm against {!Oracle.Reconfig_ref}: equal
   placements, list order included, and equal net gains. *)
let reconfig_matches_reference =
  { name = "reconfig_matches_reference";
    suite = "reconfig";
    run =
      (fun inst ->
        let module A = Reconfig.Algorithms in
        let module R = Oracle.Reconfig_ref in
        let prng = chapter_prng inst in
        let p = synthetic_problem prng ~max_loops:9 in
        let gain = Reconfig.Problem.net_gain p in
        let same what got want =
          if got <> want then failf "%s: placement differs from the reference" what
          else if gain got <> gain want then
            failf "%s: net gain %d, reference %d" what (gain got) (gain want)
          else Pass
        in
        let area = Util.Prng.int prng 400 in
        let loops = p.Reconfig.Problem.loops in
        if A.spatial_select ~loops ~area <> R.spatial_select ~loops ~area then
          failf "spatial_select at area %d differs from the reference" area
        else
          first_failure
            [ (fun () -> same "iterative" (A.iterative p) (R.iterative p));
              (fun () -> same "greedy" (A.greedy p) (R.greedy p));
              (fun () ->
                match (A.exhaustive p, R.exhaustive p) with
               | Some got, Some want -> same "exhaustive" got want
               | None, None -> Pass
                | _ -> Fail "exhaustive: refusal differs from the reference") ]) }

(* Every Chapter 7 solver against {!Oracle.Rtreconfig_ref}: equal
   placements, list order included, and bit-equal utilisations; the
   branch-and-bound also under a small node cap. *)
let rtreconfig_matches_reference =
  { name = "rtreconfig_matches_reference";
    suite = "reconfig";
    run =
      (fun inst ->
        let module S = Rtreconfig.Solvers in
        let module R = Oracle.Rtreconfig_ref in
        let prng = chapter_prng inst in
        let m = chapter7_model prng in
        let u = Rtreconfig.Model.utilization m in
        let same what got want =
          if got <> want then failf "%s: placement differs from the reference" what
          else if not (same_float (u got) (u want)) then
            failf "%s: utilization %h, reference %h" what (u got) (u want)
          else Pass
        in
        let tasks = m.Rtreconfig.Model.tasks in
        let area = Util.Prng.int prng 700 in
        let salt = Util.Prng.int prng 5000 in
        let reload (tk : Rtreconfig.Model.task) =
          (Hashtbl.hash tk.name + salt) mod (1 + tk.wcet)
        in
        let max_nodes = Util.Prng.choose prng [| 40; 500; 2_000_000 |] in
        if
          S.min_utilization_versions ~tasks ~area ~reload
          <> R.min_utilization_versions ~tasks ~area ~reload
        then failf "min_utilization_versions at area %d differs from the reference" area
        else
          first_failure
            [ (fun () -> same "dp" (S.dp m) (R.dp m));
              (fun () ->
                same
                  (Printf.sprintf "optimal (max_nodes %d)" max_nodes)
                  (S.optimal ~max_nodes m) (R.optimal ~max_nodes m)) ]) }

(* The index-based evaluators against the specification on random
   placements, feasible or not: {!Reconfig.Compiled} against
   [Problem.feasible]/[net_gain], {!Rtreconfig.Compiled} against
   [Model.utilization], bit for bit. *)
let compiled_evaluator_matches_model =
  { name = "compiled_evaluator_matches_model";
    suite = "reconfig";
    run =
      (fun inst ->
        let prng = chapter_prng inst in
        let p = synthetic_problem prng ~max_loops:12 in
        let c = Reconfig.Compiled.compile p in
        let n = Array.length c.names in
        let configs = Util.Prng.in_range prng 1 n in
        let draw_config () =
          if Util.Prng.int prng 3 = 0 then -1 else Util.Prng.int prng configs
        in
        let reconfig () =
          let version = Array.map (fun v -> Util.Prng.int prng (Array.length v)) c.versions in
          let config = Array.map (fun _ -> draw_config ()) version in
          (* most draws keep hardware and configurations consistent *)
          if Util.Prng.int prng 4 > 0 then
            Array.iteri
              (fun i v ->
                if v = 0 then config.(i) <- -1
                else if config.(i) < 0 then config.(i) <- Util.Prng.int prng configs)
              version;
          let named =
            { Reconfig.Problem.version_of =
                Array.to_list (Array.mapi (fun i v -> (c.names.(i), v)) version);
              config_of =
                List.filter_map
                  (fun i -> if config.(i) >= 0 then Some (c.names.(i), config.(i)) else None)
                  (List.init n Fun.id) }
          in
          let f = Reconfig.Compiled.feasible c ~version ~config in
          let g = Reconfig.Compiled.net_gain c ~version ~config in
          if f <> Reconfig.Problem.feasible p named then
            failf "reconfig: feasible %b, Problem.feasible disagrees" f
          else if g <> Reconfig.Problem.net_gain p named then
            failf "reconfig: net gain %d, Problem.net_gain %d" g
              (Reconfig.Problem.net_gain p named)
          else Pass
        in
        let m = chapter7_model prng in
        let tasks = Array.of_list m.Rtreconfig.Model.tasks in
        let compiled = Rtreconfig.Compiled.compile m in
        let rtreconfig () =
          let version =
            Array.map
              (fun (tk : Rtreconfig.Model.task) -> Util.Prng.int prng (Array.length tk.versions))
              tasks
          in
          let config = Array.map (fun _ -> draw_config ()) version in
          let named =
            { Rtreconfig.Model.version_of =
                Array.to_list (Array.mapi (fun i j -> (tasks.(i).name, j)) version);
              config_of =
                List.filter_map
                  (fun i -> if config.(i) >= 0 then Some (tasks.(i).name, config.(i)) else None)
                  (List.init (Array.length tasks) Fun.id) }
          in
          let got = Rtreconfig.Compiled.utilization compiled ~version ~config in
          let want = Rtreconfig.Model.utilization m named in
          if same_float got want then Pass
          else failf "rtreconfig: utilization %h, Model.utilization %h" got want
        in
        first_failure
          (List.concat_map (fun _ -> [ reconfig; rtreconfig ]) (List.init 20 Fun.id))) }

(* ---------------------------------------------------------------- *)
(* engine                                                           *)
(* ---------------------------------------------------------------- *)

let cache_counter = ref 0

let cache_roundtrip_and_corruption =
  { name = "cache_roundtrip_and_corruption";
    suite = "engine";
    run =
      (fun inst ->
        (* this property asserts exact round-trips, which injected cache
           faults deliberately violate; the survival story under faults
           is covered by [Runner.fault_selftest] and test_resilience *)
        if Engine.Fault.active () then Skip "fault injection active"
        else begin
        incr cache_counter;
        let tmp =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "isecustom-check-%d-%d" (Unix.getpid ())
               !cache_counter)
        in
        let saved_dir = Engine.Cache.dir () in
        let saved_enabled = Engine.Cache.enabled () in
        (* the deliberate corruption below rightly triggers the cache's
           corruption warning; keep it off the fuzzer's stderr *)
        let saved_level = Engine.Log.level () in
        Engine.Log.set_level Engine.Log.Error;
        Fun.protect
          ~finally:(fun () ->
            Engine.Log.set_level saved_level;
            ignore (Engine.Cache.clear ());
            (try Unix.rmdir tmp with Unix.Unix_error _ | Sys_error _ -> ());
            Engine.Cache.set_dir saved_dir;
            Engine.Cache.set_enabled saved_enabled)
          (fun () ->
            Engine.Cache.set_dir tmp;
            Engine.Cache.set_enabled true;
            let key = Printf.sprintf "check-%d" inst.Batch.Instance.budget in
            let value = inst.Batch.Instance.tasks in
            Engine.Cache.store ~namespace:"check" ~key value;
            match Engine.Cache.find ~namespace:"check" ~key () with
            | None -> Fail "stored entry reads as a miss"
            | Some (v : Batch.Instance.task_spec list) when v <> value ->
              Fail "cache hit returned a different value"
            | Some _ ->
              (* truncate the entry at a random point: loading must
                 degrade to a miss, never raise *)
              let file = Engine.Cache.file_of ~namespace:"check" ~key in
              let contents =
                let ic = open_in_bin file in
                Fun.protect
                  ~finally:(fun () -> close_in_noerr ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              let cut = inst.Batch.Instance.budget mod max 1 (String.length contents) in
              let oc = open_out_bin file in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () -> output_string oc (String.sub contents 0 cut));
              let corrupt_before = int_of_float (Obs.Metrics.sum "cache.corrupt") in
              (match Engine.Cache.find ~namespace:"check" ~key () with
               | exception e ->
                 failf "corrupt entry raised %s instead of recomputing"
                   (Printexc.to_string e)
               | Some _ ->
                 Fail "truncated entry still reads as a hit"
               | None when int_of_float (Obs.Metrics.sum "cache.corrupt") = corrupt_before ->
                 Fail "truncated entry read as a plain miss, not corruption"
               | None ->
                 (* the recompute-and-store path must repair the entry *)
                 Engine.Cache.store ~namespace:"check" ~key value;
                 if Engine.Cache.find ~namespace:"check" ~key () = Some value
                 then Pass
                 else Fail "re-stored entry does not read back"))
        end) }

let parallel_map_matches_sequential =
  { name = "parallel_map_matches_sequential";
    suite = "engine";
    run =
      (fun inst ->
        (* [Pool.map] propagates injected worker crashes by design; the
           recovery story lives in [map_result] and the "parallel"
           suite's fault property *)
        if Engine.Fault.active () then Skip "fault injection active"
        else
        let xs = List.init (1 + (inst.Batch.Instance.budget mod 40)) Fun.id in
        let f x = Hashtbl.hash (x, inst.Batch.Instance.budget, inst.Batch.Instance.eps) in
        let seq = List.map f xs in
        Engine.Parallel.Pool.with_pool ~jobs:3 @@ fun pool ->
        let par = Engine.Parallel.Pool.map pool f xs in
        if par <> seq then Fail "Pool.map diverges from List.map"
        else begin
          let sum = List.fold_left ( + ) 0 seq in
          let par_sum =
            Engine.Parallel.Pool.map_reduce pool ~map:f
              ~reduce:(fun acc v -> acc + v)
              0 xs
          in
          if par_sum <> sum then
            failf "map_reduce sum %d, sequential %d" par_sum sum
          else Pass
        end) }

let pool_map_result_matches_sequential_fold =
  { name = "pool_map_result_matches_sequential_fold";
    suite = "parallel";
    run =
      (fun inst ->
        (* Reconfigures the process-global fault state, so it must not
           run while an external spec (make faults) is armed. *)
        if Engine.Fault.active () then Skip "fault injection active"
        else begin
          let budget = inst.Batch.Instance.budget in
          let cap = 1 + (budget mod 3) in
          let spec =
            { Engine.Fault.seed = 1000 + budget;
              points =
                [ ( "parallel.worker",
                    { Engine.Fault.prob = 0.3 +. (0.4 *. inst.Batch.Instance.eps);
                      cap = Some cap } ) ] }
          in
          let xs = List.init (2 + (budget mod 23)) Fun.id in
          let f x = Hashtbl.hash (x, budget, inst.Batch.Instance.eps) in
          let seq = List.map f xs in
          Engine.Fault.configure spec;
          Fun.protect ~finally:Engine.Fault.disable @@ fun () ->
          Engine.Parallel.Pool.with_pool ~jobs:(2 + (budget mod 3))
          @@ fun pool ->
          (* the point fires at most [cap] times, so [cap + 1] attempts
             guarantee every slot eventually computes: under injected
             crashes pooled map_result must still equal the sequential
             fold, slot for slot *)
          let outcomes =
            Engine.Parallel.Pool.map_result pool ~attempts:(cap + 1) f xs
          in
          let first_error =
            List.find_map
              (function Ok _ -> None | Error (e : Engine.Parallel.error) -> Some e)
              outcomes
          in
          match first_error with
          | Some e ->
            failf "slot failed despite attempts > cap: %s" e.message
          | None ->
            let got =
              List.filter_map (function Ok v -> Some v | Error _ -> None) outcomes
            in
            if got <> seq then
              Fail "pooled map_result diverges from sequential fold under faults"
            else Pass
        end) }

(* ---------------------------------------------------------------- *)

let all =
  [ edf_dp_matches_oracle;
    rms_bnb_matches_oracle;
    heuristics_bounded_by_optimal;
    edf_budget_monotone;
    rms_guarded_partial_sound;
    rms_pruning_invariant;
    rms_test_matches_response_time;
    exact_front_matches_oracle;
    approx_front_eps_covers;
    inter_stage_approx_covers;
    kernel_matches_reference;
    generated_curve_well_formed;
    candidates_respect_constraints;
    isegen_candidates_legal;
    isegen_matches_oracle_on_small;
    isegen_deterministic;
    isegen_guard_anytime;
    hw_backend_area_monotone;
    auto_dispatch_consistent;
    identification_matches_reference;
    reconfig_matches_reference;
    rtreconfig_matches_reference;
    compiled_evaluator_matches_model;
    cache_roundtrip_and_corruption;
    parallel_map_matches_sequential;
    pool_map_result_matches_sequential_fold ]

let suites =
  List.fold_left
    (fun acc p -> if List.mem p.suite acc then acc else acc @ [ p.suite ])
    [] all

let find name = List.find_opt (fun p -> p.name = name) all

let in_suites = function
  | [] -> all
  | wanted -> List.filter (fun p -> List.mem p.suite wanted) all

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let pt cost value = { Util.Pareto_front.cost; value }

let entity options =
  Array.of_list (List.map (fun (d, c) -> { Pareto.Mo_select.delta = d; cost = c }) options)

(* ------------------------------------------------------------------ *)
(* The running example of Figure 4.1 (exact published numbers)         *)
(* ------------------------------------------------------------------ *)

(* T1: E=10, P=20, CIs (δ=2,a=30), (δ=3,a=60). *)
let t1_entities = [ entity [ (2., 30) ]; entity [ (3., 60) ] ]

(* T2: E=15, P=20, CIs (δ=1,a=10), (δ=1,a=20), (δ=3,a=50). *)
let t2_entities = [ entity [ (1., 10) ]; entity [ (1., 20) ]; entity [ (3., 50) ] ]

let test_fig41_t1_workload_front () =
  let front = Pareto.Mo_select.exact_front ~base:10. t1_entities in
  check
    (Alcotest.list (Alcotest.pair int (Alcotest.float 1e-9)))
    "T1 front"
    [ (0, 10.); (30, 8.); (60, 7.); (90, 5.) ]
    (List.map (fun p -> (p.Util.Pareto_front.cost, p.Util.Pareto_front.value)) front)

let test_fig41_t2_workload_front () =
  let front = Pareto.Mo_select.exact_front ~base:15. t2_entities in
  check
    (Alcotest.list (Alcotest.pair int (Alcotest.float 1e-9)))
    "T2 front"
    [ (0, 15.); (10, 14.); (30, 13.); (50, 12.); (60, 11.); (80, 10.) ]
    (List.map (fun p -> (p.Util.Pareto_front.cost, p.Util.Pareto_front.value)) front)

let test_fig41_inter_task_front () =
  let t1 =
    { Pareto.Stages.Inter.period = 20; workload = 10;
      front = [ pt 0 10.; pt 30 8.; pt 60 7.; pt 90 5. ] }
  in
  let t2 =
    { Pareto.Stages.Inter.period = 20; workload = 15;
      front = [ pt 0 15.; pt 10 14.; pt 30 13.; pt 50 12.; pt 60 11.; pt 80 10. ] }
  in
  check (Alcotest.float 1e-9) "base utilization 5/4" 1.25
    (Pareto.Stages.Inter.base_utilization [ t1; t2 ]);
  let front = Pareto.Stages.Inter.exact [ t1; t2 ] in
  (* The thesis's published utilization-area trade-off points. *)
  let expect =
    [ (0, 1.25); (10, 1.2); (30, 1.15); (40, 1.1); (60, 1.05); (80, 1.0);
      (90, 0.95); (110, 0.9); (140, 0.85); (150, 0.8); (170, 0.75) ]
  in
  List.iter
    (fun (cost, u) ->
      check bool
        (Printf.sprintf "front contains (%d, %.2f)" cost u)
        true
        (List.exists
           (fun p ->
             p.Util.Pareto_front.cost = cost
             && Float.abs (p.Util.Pareto_front.value -. u) < 1e-9)
           front))
    expect;
  (* the schedulable region starts at area 80, matching Figure 4.1 *)
  let schedulable = List.filter (fun p -> p.Util.Pareto_front.value <= 1.) front in
  check int "six schedulable trade-offs" 6 (List.length schedulable);
  check int "cheapest schedulable solution costs 80"
    80 (List.hd schedulable).Util.Pareto_front.cost

(* ------------------------------------------------------------------ *)
(* GAP subroutine                                                     *)
(* ------------------------------------------------------------------ *)

let test_gap_returns_dominating () =
  (* Bound (60, 8.) is achievable for T1: (30, 8.) dominates it. *)
  match
    Pareto.Mo_select.gap ~eps:0.5 ~cost_bound:60 ~value_bound:8. ~base:10. t1_entities
  with
  | Some p ->
    check bool "dominates the query" true
      (p.Util.Pareto_front.cost <= 60 && p.Util.Pareto_front.value <= 8.)
  | None -> Alcotest.fail "expected a solution"

let test_gap_none_guarantee () =
  (* value 4 is unreachable (min workload is 5): must answer None. *)
  check bool "unreachable value" true
    (Pareto.Mo_select.gap ~eps:0.5 ~cost_bound:1000 ~value_bound:4. ~base:10.
       t1_entities
     = None)

let test_gap_zero_cost_bound () =
  (* the all-zero selection (cost 0, value 10) meets the bounds *)
  check
    (Alcotest.option (Alcotest.pair int (Alcotest.float 0.)))
    "zero budget keeps the software point" (Some (0, 10.))
    (Option.map
       (fun p -> (p.Util.Pareto_front.cost, p.Util.Pareto_front.value))
       (Pareto.Mo_select.gap ~eps:0.5 ~cost_bound:0 ~value_bound:10. ~base:10.
          t1_entities))

let prop_gap_sound =
  (* When GAP returns a point, the point satisfies the bounds. *)
  QCheck.Test.make ~name:"gap solutions satisfy their bounds" ~count:200
    QCheck.(triple (int_range 0 200) (float_range 0. 15.) (float_range 0.1 3.))
    (fun (cost_bound, value_bound, eps) ->
      match
        Pareto.Mo_select.gap ~eps ~cost_bound ~value_bound ~base:15. t2_entities
      with
      | None -> true
      | Some p ->
        p.Util.Pareto_front.cost <= cost_bound
        && p.Util.Pareto_front.value <= value_bound +. 1e-6)

let prop_gap_complete_with_slack =
  (* If an exact solution exists at (c/(1+eps), w), GAP at (c, w) must
     not answer None — the thesis's property (b). *)
  QCheck.Test.make ~name:"gap never misses solutions below the slack line"
    ~count:200
    QCheck.(pair (int_range 1 250) (float_range 0.1 3.))
    (fun (cost_bound, eps) ->
      let exact = Pareto.Mo_select.exact_front ~base:15. t2_entities in
      let reachable =
        List.filter
          (fun p ->
            float_of_int p.Util.Pareto_front.cost
            <= float_of_int cost_bound /. (1. +. eps))
          exact
      in
      match reachable with
      | [] -> true
      | _ ->
        let w = List.fold_left (fun acc p -> Float.min acc p.Util.Pareto_front.value) infinity reachable in
        Pareto.Mo_select.gap ~eps ~cost_bound ~value_bound:w ~base:15. t2_entities
        <> None)

(* ------------------------------------------------------------------ *)
(* FPTAS                                                              *)
(* ------------------------------------------------------------------ *)

let random_entities seed n =
  let prng = Util.Prng.create seed in
  List.init n (fun _ ->
      entity
        [ (float_of_int (Util.Prng.in_range prng 1 20),
           Util.Prng.in_range prng 1 60) ])

let prop_approx_eps_covers_exact =
  QCheck.Test.make ~name:"approximate front eps-covers the exact front"
    ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 1 10))
    (fun (seed, n) ->
      let entities = random_entities seed n in
      let base = 500. in
      let exact = Pareto.Mo_select.exact_front ~base entities in
      List.for_all
        (fun eps ->
          let approx = Pareto.Mo_select.approx_front ~eps ~base entities in
          Util.Pareto_front.eps_covers ~eps ~exact approx)
        [ 0.21; 0.69; 3.0 ])

let prop_approx_is_front =
  QCheck.Test.make ~name:"approximate curves are valid fronts" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 1 12))
    (fun (seed, n) ->
      let entities = random_entities seed n in
      let approx = Pareto.Mo_select.approx_front ~eps:0.44 ~base:500. entities in
      Util.Pareto_front.is_front approx)

let prop_approx_no_larger_than_exact =
  QCheck.Test.make ~name:"approximate front never has more points than exact"
    ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 1 10))
    (fun (seed, n) ->
      let entities = random_entities seed n in
      let exact = Pareto.Mo_select.exact_front ~base:500. entities in
      let approx = Pareto.Mo_select.approx_front ~eps:3.0 ~base:500. entities in
      List.length approx <= List.length exact)

let prop_approx_points_feasible =
  QCheck.Test.make ~name:"every approximate point is a real solution"
    ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 1 8))
    (fun (seed, n) ->
      let entities = random_entities seed n in
      let base = 500. in
      let approx = Pareto.Mo_select.approx_front ~eps:0.69 ~base entities in
      (* a point is feasible iff the exact optimum at its cost is <= value *)
      List.for_all
        (fun p ->
          Pareto.Mo_select.solve_at_cost ~cost:p.Util.Pareto_front.cost ~base entities
          <= p.Util.Pareto_front.value +. 1e-6)
        approx)

let test_solve_at_cost () =
  check (Alcotest.float 1e-9) "T1 at 60" 7.
    (Pareto.Mo_select.solve_at_cost ~cost:60 ~base:10. t1_entities);
  check (Alcotest.float 1e-9) "T1 at 90" 5.
    (Pareto.Mo_select.solve_at_cost ~cost:90 ~base:10. t1_entities);
  check (Alcotest.float 1e-9) "T1 at 0" 10.
    (Pareto.Mo_select.solve_at_cost ~cost:0 ~base:10. t1_entities)

(* ------------------------------------------------------------------ *)
(* End-to-end intra stage on a kernel                                  *)
(* ------------------------------------------------------------------ *)

let test_intra_stage_on_kernel () =
  let workload, exact = Pareto.Stages.Intra.of_task (Kernels.find "lms") in
  check bool "non-trivial front" true (List.length exact > 1);
  check bool "front starts at software point" true
    (match exact with
     | p :: _ -> p.Util.Pareto_front.cost = 0 && p.Util.Pareto_front.value = float_of_int workload
     | [] -> false);
  let _, approx = Pareto.Stages.Intra.of_task ~eps:0.69 (Kernels.find "lms") in
  check bool "approx covers exact" true
    (Util.Pareto_front.eps_covers ~eps:0.69 ~exact approx)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "pareto"
    [ ( "fig4.1",
        [ Alcotest.test_case "T1 workload-area front" `Quick test_fig41_t1_workload_front;
          Alcotest.test_case "T2 workload-area front" `Quick test_fig41_t2_workload_front;
          Alcotest.test_case "inter-task utilization-area front" `Quick
            test_fig41_inter_task_front ] );
      ( "gap",
        [ Alcotest.test_case "returns dominating solution" `Quick test_gap_returns_dominating;
          Alcotest.test_case "None on unreachable value" `Quick test_gap_none_guarantee;
          Alcotest.test_case "zero cost bound keeps the zero selection" `Quick
            test_gap_zero_cost_bound;
          qt prop_gap_sound;
          qt prop_gap_complete_with_slack ] );
      ( "fptas",
        [ qt prop_approx_eps_covers_exact;
          qt prop_approx_is_front;
          qt prop_approx_no_larger_than_exact;
          qt prop_approx_points_feasible;
          Alcotest.test_case "solve at cost" `Quick test_solve_at_cost ] );
      ( "stages",
        [ Alcotest.test_case "intra stage on lms" `Quick test_intra_stage_on_kernel ] ) ]

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Trace from pair counts                                             *)
(* ------------------------------------------------------------------ *)

let test_of_pair_counts_roundtrip () =
  let counts = [ (("a", "b"), 2); (("b", "c"), 4); (("a", "c"), 2) ] in
  let trace = Ir.Trace.of_pair_counts counts in
  let back =
    Ir.Trace.pair_counts ~keep:(fun _ -> true) trace |> List.sort compare
  in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.pair Alcotest.string Alcotest.string) int))
    "roundtrip" (List.sort compare counts) back

let test_of_pair_counts_rejects_odd_degree () =
  (try
     ignore (Ir.Trace.of_pair_counts [ (("a", "b"), 1) ]);
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ())

let test_of_pair_counts_rejects_disconnected () =
  (try
     ignore (Ir.Trace.of_pair_counts [ (("a", "b"), 2); (("c", "d"), 2) ]);
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ())

let prop_synthetic_roundtrip =
  QCheck.Test.make ~name:"synthetic traces realise their pair counts exactly"
    ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 20))
    (fun (seed, n) ->
      let p = Reconfig.Synthetic.generate ~seed ~loops:n in
      (* replay says the same as the RCG edge weights: total reconfigs in
         the everyone-separate placement equals total pair counts *)
      let counts = Ir.Trace.pair_counts ~keep:(fun _ -> true) p.Reconfig.Problem.trace in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
      let each_own =
        { Reconfig.Problem.version_of =
            List.mapi (fun i (l : Reconfig.Problem.hot_loop) ->
                ignore i;
                (l.name, if Array.length l.versions > 1 then 1 else 0))
              p.Reconfig.Problem.loops;
          config_of =
            List.mapi (fun i (l : Reconfig.Problem.hot_loop) -> (l.name, i))
              p.Reconfig.Problem.loops
            |> List.filter (fun (name, _) ->
                   Array.length (Reconfig.Problem.find_loop p name).versions > 1) }
      in
      (* if every hot loop is mapped to hardware in its own configuration,
         each adjacency in the trace is a reload *)
      let all_hw =
        List.for_all
          (fun (l : Reconfig.Problem.hot_loop) -> Array.length l.versions > 1)
          p.Reconfig.Problem.loops
      in
      QCheck.assume all_hw;
      Reconfig.Problem.reconfigurations p each_own = total)

let prop_pair_counts_roundtrip_random =
  QCheck.Test.make
    ~name:"of_pair_counts/pair_counts roundtrip on random Eulerian multigraphs"
    ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 2 8))
    (fun (seed, n) ->
      (* build a random connected even-degree multigraph the same way the
         synthetic generator does, then check the exact roundtrip *)
      let p = Reconfig.Synthetic.generate ~seed ~loops:n in
      let counts =
        Ir.Trace.pair_counts ~keep:(fun _ -> true) p.Reconfig.Problem.trace
        |> List.sort compare
      in
      let rebuilt = Ir.Trace.of_pair_counts counts in
      let back =
        Ir.Trace.pair_counts ~keep:(fun _ -> true) rebuilt |> List.sort compare
      in
      back = counts)

(* ------------------------------------------------------------------ *)
(* The motivating example of Figure 6.4 (exact published numbers)      *)
(* ------------------------------------------------------------------ *)

(* gains in K cycles, areas in AUs; MaxA = 2048 AUs; rho = 15K cycles *)
let fig64 () =
  let loops =
    [ Reconfig.Problem.loop "loop1" [ (111, 257); (160, 301); (563, 1612) ];
      Reconfig.Problem.loop "loop2"
        [ (230, 76); (387, 1041); (426, 1321); (556, 2004) ];
      Reconfig.Problem.loop "loop3" [ (493, 967); (549, 1249) ] ]
  in
  (* edge weights: l1-l2 = 9, l1-l3 = 9, l2-l3 = 31 (all degrees even) *)
  let trace =
    Ir.Trace.of_pair_counts
      [ (("loop1", "loop2"), 9); (("loop1", "loop3"), 9); (("loop2", "loop3"), 31) ]
  in
  { Reconfig.Problem.loops; trace; max_area = 2048; reconfig_cost = 15 }

let test_fig64_solution_a_static () =
  (* one configuration: versions l1,3 + l2,2 + l3,2 -> gain 883, no reconfig *)
  let p = fig64 () in
  let placement =
    { Reconfig.Problem.version_of = [ ("loop1", 2); ("loop2", 1); ("loop3", 1) ];
      config_of = [ ("loop1", 0); ("loop2", 0); ("loop3", 0) ] }
  in
  check bool "feasible" true (Reconfig.Problem.feasible p placement);
  check int "gain 883" 883 (Reconfig.Problem.raw_gain p placement);
  check int "no reconfigurations" 0 (Reconfig.Problem.reconfigurations p placement);
  check int "net 883" 883 (Reconfig.Problem.net_gain p placement)

let test_fig64_solution_b_each_own () =
  let p = fig64 () in
  let placement =
    { Reconfig.Problem.version_of = [ ("loop1", 3); ("loop2", 4); ("loop3", 2) ];
      config_of = [ ("loop1", 0); ("loop2", 1); ("loop3", 2) ] }
  in
  check bool "feasible" true (Reconfig.Problem.feasible p placement);
  check int "gain 1668" 1668 (Reconfig.Problem.raw_gain p placement);
  check int "49 reconfigurations" 49 (Reconfig.Problem.reconfigurations p placement);
  check int "net 933" 933 (Reconfig.Problem.net_gain p placement)

let test_fig64_solution_c_optimal () =
  let p = fig64 () in
  let placement =
    { Reconfig.Problem.version_of = [ ("loop1", 3); ("loop2", 2); ("loop3", 1) ];
      config_of = [ ("loop1", 0); ("loop2", 1); ("loop3", 1) ] }
  in
  check bool "feasible" true (Reconfig.Problem.feasible p placement);
  check int "gain 1443" 1443 (Reconfig.Problem.raw_gain p placement);
  check int "18 reconfigurations" 18 (Reconfig.Problem.reconfigurations p placement);
  check int "net 1173" 1173 (Reconfig.Problem.net_gain p placement)

let test_fig64_iterative_finds_optimum () =
  let p = fig64 () in
  let placement = Reconfig.Algorithms.iterative p in
  check bool "feasible" true (Reconfig.Problem.feasible p placement);
  check int "net gain 1173" 1173 (Reconfig.Problem.net_gain p placement)

let test_fig64_exhaustive_confirms () =
  let p = fig64 () in
  match Reconfig.Algorithms.exhaustive p with
  | Some placement -> check int "optimal 1173" 1173 (Reconfig.Problem.net_gain p placement)
  | None -> Alcotest.fail "exhaustive refused a 3-loop instance"

let test_fig64_capacity_violation_rejected () =
  let p = fig64 () in
  (* l2,4 (2004) + l3,2 (1249) = 3253 > 2048 in one configuration *)
  let placement =
    { Reconfig.Problem.version_of = [ ("loop1", 0); ("loop2", 4); ("loop3", 2) ];
      config_of = [ ("loop2", 0); ("loop3", 0) ] }
  in
  check bool "infeasible" false (Reconfig.Problem.feasible p placement)

(* ------------------------------------------------------------------ *)
(* Spatial DP (Algorithm 7)                                           *)
(* ------------------------------------------------------------------ *)

let test_spatial_select_published () =
  let p = fig64 () in
  (* the global phase at 2·MaxA = 4096 picks l1,4 + l2,3 + l3,3 in the
     thesis's 1-based numbering (Figure 6.5) — 0-based indices 3, 2, 2 *)
  let sel = Reconfig.Algorithms.spatial_select ~loops:p.Reconfig.Problem.loops ~area:4096 in
  check int "loop1 version" 3 (List.assoc "loop1" sel);
  check int "loop2 version" 2 (List.assoc "loop2" sel);
  check int "loop3 version" 2 (List.assoc "loop3" sel)

let prop_spatial_matches_bruteforce =
  QCheck.Test.make ~name:"spatial DP equals brute force" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 50 400))
    (fun (seed, area) ->
      let p = Reconfig.Synthetic.generate ~seed ~loops:4 in
      let loops = p.Reconfig.Problem.loops in
      let dp = Reconfig.Algorithms.spatial_select ~loops ~area in
      let dp_gain =
        Util.Numeric.sum_by
          (fun (name, j) -> (Reconfig.Problem.find_loop p name).versions.(j).Reconfig.Problem.gain)
          dp
      in
      let dp_area =
        Util.Numeric.sum_by
          (fun (name, j) -> (Reconfig.Problem.find_loop p name).versions.(j).Reconfig.Problem.area)
          dp
      in
      (* brute force over all version combinations *)
      let rec best acc_gain acc_area = function
        | [] -> if acc_area <= area then acc_gain else min_int
        | (l : Reconfig.Problem.hot_loop) :: rest ->
          Array.to_list l.versions
          |> List.map (fun (v : Reconfig.Problem.version) ->
                 if acc_area + v.area > area then min_int
                 else best (acc_gain + v.gain) (acc_area + v.area) rest)
          |> List.fold_left max min_int
      in
      dp_area <= area && dp_gain = best 0 0 loops)

(* ------------------------------------------------------------------ *)
(* Algorithm comparisons                                              *)
(* ------------------------------------------------------------------ *)

let prop_all_algorithms_feasible =
  QCheck.Test.make ~name:"all algorithms return feasible placements" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 3 14))
    (fun (seed, n) ->
      let p = Reconfig.Synthetic.generate ~seed ~loops:n in
      let it = Reconfig.Algorithms.iterative p in
      let gr = Reconfig.Algorithms.greedy p in
      Reconfig.Problem.feasible p it && Reconfig.Problem.feasible p gr)

let prop_greedy_nonnegative =
  QCheck.Test.make ~name:"greedy net gain is never negative" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 3 20))
    (fun (seed, n) ->
      let p = Reconfig.Synthetic.generate ~seed ~loops:n in
      Reconfig.Problem.net_gain p (Reconfig.Algorithms.greedy p) >= 0)

(* Exhaustive is optimal over "grouping + per-group gain-max knapsack"
   placements — the thesis's own definition (see the mli note).
   Placements that leave a profitable loop in software fall outside that
   space and can rarely edge past it, so the sound dominance property is
   against the static single configuration, which has the same shape. *)
let prop_exhaustive_dominates_static =
  QCheck.Test.make ~name:"exhaustive >= the static single configuration"
    ~count:12
    QCheck.(pair (int_range 0 10_000) (int_range 3 7))
    (fun (seed, n) ->
      let p = Reconfig.Synthetic.generate ~seed ~loops:n in
      match Reconfig.Algorithms.exhaustive p with
      | None -> false
      | Some ex ->
        let sel =
          Reconfig.Algorithms.spatial_select ~loops:p.Reconfig.Problem.loops
            ~area:p.Reconfig.Problem.max_area
        in
        let static =
          { Reconfig.Problem.version_of = sel;
            config_of =
              List.filter_map
                (fun (name, j) -> if j > 0 then Some (name, 0) else None)
                sel }
        in
        Reconfig.Problem.feasible p ex
        && Reconfig.Problem.net_gain p ex >= Reconfig.Problem.net_gain p static)

let test_exhaustive_refuses_large () =
  let p = Reconfig.Synthetic.generate ~seed:1 ~loops:20 in
  check bool "refuses 20 loops" true
    (Reconfig.Algorithms.exhaustive ~max_partitions:100_000 p = None)

let prop_iterative_beats_static =
  QCheck.Test.make
    ~name:"iterative >= the best single-configuration (static) solution"
    ~count:20
    QCheck.(pair (int_range 0 10_000) (int_range 3 12))
    (fun (seed, n) ->
      let p = Reconfig.Synthetic.generate ~seed ~loops:n in
      (* static = k=1: one configuration, no reconfiguration *)
      let sel =
        Reconfig.Algorithms.spatial_select ~loops:p.Reconfig.Problem.loops
          ~area:p.Reconfig.Problem.max_area
      in
      let hw = List.filter (fun (_, j) -> j > 0) sel in
      let static =
        { Reconfig.Problem.version_of = sel;
          config_of = List.map (fun (name, _) -> (name, 0)) hw }
      in
      Reconfig.Problem.net_gain p (Reconfig.Algorithms.iterative p)
      >= Reconfig.Problem.net_gain p static)

(* Every Chapter 6 and 7 solver records its own span. *)
let test_solver_spans () =
  Engine.Trace.set_enabled true;
  Engine.Trace.reset ();
  let names =
    Fun.protect
      ~finally:(fun () -> Engine.Trace.set_enabled false)
      (fun () ->
        let p = Reconfig.Synthetic.generate ~seed:3 ~loops:5 in
        ignore (Reconfig.Algorithms.iterative p : Reconfig.Problem.placement);
        ignore (Reconfig.Algorithms.greedy p : Reconfig.Problem.placement);
        ignore (Reconfig.Algorithms.exhaustive p : Reconfig.Problem.placement option);
        let m =
          { Rtreconfig.Model.tasks =
              [ Rtreconfig.Model.task ~name:"a" ~period:100 ~wcet:60 [ (20, 30) ];
                Rtreconfig.Model.task ~name:"b" ~period:300 ~wcet:90 [ (40, 50) ] ];
            max_area = 60;
            reconfig_cost = 5 }
        in
        ignore (Rtreconfig.Solvers.dp m : Rtreconfig.Model.placement);
        ignore (Rtreconfig.Solvers.optimal m : Rtreconfig.Model.placement);
        List.map (fun (s : Engine.Trace.span) -> s.name) (Engine.Trace.spans ()))
  in
  List.iter
    (fun name -> check bool name true (List.mem name names))
    [ "reconfig.iterative"; "reconfig.greedy"; "reconfig.exhaustive"; "rtreconfig.dp";
      "rtreconfig.static"; "rtreconfig.optimal" ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "reconfig"
    [ ( "trace-construction",
        [ Alcotest.test_case "roundtrip" `Quick test_of_pair_counts_roundtrip;
          Alcotest.test_case "rejects odd degree" `Quick test_of_pair_counts_rejects_odd_degree;
          Alcotest.test_case "rejects disconnected" `Quick test_of_pair_counts_rejects_disconnected;
          qt prop_synthetic_roundtrip;
          qt prop_pair_counts_roundtrip_random ] );
      ( "fig6.4",
        [ Alcotest.test_case "solution A (static)" `Quick test_fig64_solution_a_static;
          Alcotest.test_case "solution B (each own)" `Quick test_fig64_solution_b_each_own;
          Alcotest.test_case "solution C (optimal)" `Quick test_fig64_solution_c_optimal;
          Alcotest.test_case "iterative finds optimum" `Quick test_fig64_iterative_finds_optimum;
          Alcotest.test_case "exhaustive confirms" `Quick test_fig64_exhaustive_confirms;
          Alcotest.test_case "capacity violation rejected" `Quick test_fig64_capacity_violation_rejected ] );
      ( "spatial",
        [ Alcotest.test_case "published selection" `Quick test_spatial_select_published;
          qt prop_spatial_matches_bruteforce ] );
      ( "algorithms",
        [ qt prop_all_algorithms_feasible;
          qt prop_greedy_nonnegative;
          qt prop_exhaustive_dominates_static;
          Alcotest.test_case "exhaustive refuses large" `Quick test_exhaustive_refuses_large;
          qt prop_iterative_beats_static;
          Alcotest.test_case "solver spans" `Quick test_solver_spans ] ) ]

module B = Ir.Dfg.Builder

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* A hand-built diamond:  0:load  1:add(0)  2:mul(0)  3:add(1,2)  4:store(3) *)
let diamond () =
  let b = B.create () in
  let ld = B.add b Ir.Op.Load in
  let a1 = B.add_with b Ir.Op.Add [ ld ] in
  let m = B.add_with b Ir.Op.Mul [ ld ] in
  let a2 = B.add_with b Ir.Op.Add [ a1; m ] in
  let st = B.add_with b Ir.Op.Store [ a2 ] in
  (B.finish b, ld, a1, m, a2, st)

let test_builder_basic () =
  let dfg, ld, a1, m, a2, st = diamond () in
  check int "node count" 5 (Ir.Dfg.node_count dfg);
  check Alcotest.(list int) "preds of join" [ a1; m ] (Ir.Dfg.preds dfg a2);
  check Alcotest.(list int) "succs of load" [ a1; m ] (Ir.Dfg.succs dfg ld);
  check bool "store is last" true (Ir.Dfg.succs dfg st = []);
  check bool "load invalid" false (Ir.Dfg.valid_node dfg ld);
  check bool "add valid" true (Ir.Dfg.valid_node dfg a1)

let test_builder_rejects_backward_edge () =
  let b = B.create () in
  let x = B.add b Ir.Op.Add in
  let y = B.add b Ir.Op.Add in
  Alcotest.check_raises "backward edge" (Invalid_argument "Dfg.Builder.edge: src must precede dst")
    (fun () -> B.edge b y x)

let test_builder_rejects_arity_overflow () =
  let b = B.create () in
  let x = B.add b Ir.Op.Const in
  let y = B.add b Ir.Op.Const in
  let z = B.add b Ir.Op.Const in
  let n = B.add_with b Ir.Op.Not [ x ] in
  B.edge b y n;
  B.edge b z n;
  (try
     ignore (B.finish b);
     Alcotest.fail "expected arity failure"
   with Invalid_argument _ -> ())

let test_sw_cycles () =
  let dfg, _, _, _, _, _ = diamond () in
  (* load=2, add=1, mul=1, add=1, store=2 *)
  check int "total sw cycles" 7 (Ir.Dfg.sw_cycles_total dfg)

let test_io_counting () =
  let dfg, _, a1, m, a2, _ = diamond () in
  let set = Util.Bitset.of_list 5 [ a1; m; a2 ] in
  (* One external producer (the load) plus one implicit live-in operand on
     each of a1 and m; a2 feeds the store outside. *)
  check int "inputs" 3 (Ir.Dfg.input_count dfg set);
  check int "outputs" 1 (Ir.Dfg.output_count dfg set);
  let pair = Util.Bitset.of_list 5 [ a1; m ] in
  check int "pair inputs" 3 (Ir.Dfg.input_count dfg pair);
  check int "pair outputs" 2 (Ir.Dfg.output_count dfg pair)

let test_implicit_live_ins_counted () =
  let b = B.create () in
  (* add with one wired operand and one implicit live-in *)
  let c = B.add b Ir.Op.Const in
  let a = B.add_with b Ir.Op.Add [ c ] in
  let dfg = B.finish b in
  let set = Util.Bitset.of_list 2 [ a ] in
  (* one external producer (the const) + one implicit live-in *)
  check int "implicit input counted" 2 (Ir.Dfg.input_count dfg set);
  let both = Util.Bitset.of_list 2 [ c; a ] in
  check int "const supplies no input" 1 (Ir.Dfg.input_count dfg both)

let test_convexity () =
  let dfg, _, a1, m, a2, _ = diamond () in
  check bool "full arith set convex" true
    (Ir.Dfg.is_convex dfg (Util.Bitset.of_list 5 [ a1; m; a2 ]));
  (* a1 and a2 without m: path a1 -> ... no: m is a sibling, both paths go
     load->{a1,m}->a2; {a1,a2} is convex (no path a1->m->a2? m is not
     reachable from a1). Build a real violation: chain x->y->z, take {x,z}. *)
  let b = B.create () in
  let x = B.add b Ir.Op.Add in
  let y = B.add_with b Ir.Op.Add [ x ] in
  let z = B.add_with b Ir.Op.Add [ y ] in
  let chain = B.finish b in
  check bool "chain endpoints non-convex" false
    (Ir.Dfg.is_convex chain (Util.Bitset.of_list 3 [ x; z ]));
  check bool "full chain convex" true
    (Ir.Dfg.is_convex chain (Util.Bitset.of_list 3 [ x; y; z ]))

let test_connectivity () =
  let b = B.create () in
  let x = B.add b Ir.Op.Add in
  let y = B.add_with b Ir.Op.Add [ x ] in
  let z = B.add b Ir.Op.Mul in
  let dfg = B.finish b in
  check bool "connected pair" true
    (Ir.Dfg.is_connected dfg (Util.Bitset.of_list 3 [ x; y ]));
  check bool "disconnected pair" false
    (Ir.Dfg.is_connected dfg (Util.Bitset.of_list 3 [ x; z ]));
  check bool "empty connected" true
    (Ir.Dfg.is_connected dfg (Util.Bitset.create 3))

let test_critical_path () =
  let dfg, ld, a1, m, a2, _ = diamond () in
  ignore ld;
  let delay = function Ir.Op.Mul -> 5. | _ -> 2. in
  let set = Util.Bitset.of_list 5 [ a1; m; a2 ] in
  (* longest path: mul(5) -> add(2) = 7 *)
  check (Alcotest.float 1e-9) "critical path" 7.
    (Ir.Dfg.critical_path dfg ~delay set)

(* The systhreads of one domain share the scratch of [critical_path]
   and of the input count.  A [delay] that yields at every node makes
   four threads interleave inside the calls on overlapping random sets;
   each must still get the answers of a sequential run. *)
let test_critical_path_threads () =
  let prng = Util.Prng.create 5 in
  let dfg = Kernels.Blockgen.block prng ~size:200 Kernels.Blockgen.dsp_mix in
  let n = Ir.Dfg.node_count dfg in
  let sets =
    Array.init 8 (fun _ ->
        let set = Util.Bitset.create n in
        for v = 0 to n - 1 do
          if Util.Prng.int prng 2 = 0 then Util.Bitset.set set v
        done;
        set)
  in
  let delay_of = function Ir.Op.Mul -> 5. | Ir.Op.Add -> 3. | _ -> 2. in
  let run ~delay i =
    List.init 8 (fun j ->
        let set = sets.((i + j) mod 8) in
        let path = Ir.Dfg.critical_path dfg ~delay set in
        (path, Ir.Dfg.input_count dfg set, Ir.Dfg.output_count dfg set))
  in
  let expected = Array.init 4 (run ~delay:delay_of) in
  let got = Array.make 4 [] in
  let yielding k = Thread.yield (); delay_of k in
  List.init 4 (fun i -> Thread.create (fun () -> got.(i) <- run ~delay:yielding i) ())
  |> List.iter Thread.join;
  Array.iteri
    (fun i e ->
      check
        Alcotest.(list (triple (float 0.) int int))
        (Printf.sprintf "thread %d" i) e got.(i))
    expected

let test_reachability () =
  let dfg, ld, a1, m, a2, st = diamond () in
  let r = Ir.Dfg.reachable_from dfg ld in
  check bool "load reaches store" true (Util.Bitset.mem r st);
  check bool "load reaches join" true (Util.Bitset.mem r a2);
  let r2 = Ir.Dfg.reachable_from dfg a1 in
  check bool "a1 does not reach m" false (Util.Bitset.mem r2 m)

(* ------------------------------------------------------------------ *)
(* Property tests on random DAGs                                      *)
(* ------------------------------------------------------------------ *)

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topological order respects all edges" ~count:200
    Test_helpers.arb_small_dfg
    (fun dfg ->
      let rank = Array.make (Ir.Dfg.node_count dfg) 0 in
      Array.iteri (fun pos v -> rank.(v) <- pos) (Ir.Dfg.topo_order dfg);
      List.for_all
        (fun v ->
          List.for_all (fun s -> rank.(v) < rank.(s)) (Ir.Dfg.succs dfg v))
        (Ir.Dfg.nodes dfg))

let prop_convex_superset_of_closure =
  QCheck.Test.make ~name:"the full node set is always convex" ~count:100
    Test_helpers.arb_small_dfg
    (fun dfg ->
      let n = Ir.Dfg.node_count dfg in
      Ir.Dfg.is_convex dfg (Util.Bitset.of_list n (Ir.Dfg.nodes dfg)))

let prop_singletons_convex =
  QCheck.Test.make ~name:"singletons are convex and connected" ~count:100
    Test_helpers.arb_small_dfg
    (fun dfg ->
      List.for_all
        (fun v ->
          let s = Util.Bitset.of_list (Ir.Dfg.node_count dfg) [ v ] in
          Ir.Dfg.is_convex dfg s && Ir.Dfg.is_connected dfg s)
        (Ir.Dfg.nodes dfg))

let prop_convexity_bruteforce =
  QCheck.Test.make
    ~name:"reachability-based convexity agrees with path search" ~count:300
    Test_helpers.arb_dfg_with_set
    (fun (dfg, set) ->
      (* brute force: DFS from each outside-successor of the set *)
      let outside_reenters () =
        let n = Ir.Dfg.node_count dfg in
        let visited = Array.make n false in
        let found = ref false in
        let rec dfs v =
          if not visited.(v) then begin
            visited.(v) <- true;
            if Util.Bitset.mem set v then found := true
            else List.iter dfs (Ir.Dfg.succs dfg v)
          end
        in
        Util.Bitset.iter
          (fun v ->
            List.iter
              (fun s -> if not (Util.Bitset.mem set s) then dfs s)
              (Ir.Dfg.succs dfg v))
          set;
        !found
      in
      Ir.Dfg.is_convex dfg set = not (outside_reenters ()))

let prop_io_nonnegative =
  QCheck.Test.make ~name:"I/O counts are non-negative and bounded" ~count:300
    Test_helpers.arb_dfg_with_set
    (fun (dfg, set) ->
      let i = Ir.Dfg.input_count dfg set and o = Ir.Dfg.output_count dfg set in
      i >= 0 && o >= 0 && o <= Util.Bitset.cardinal set)

(* ------------------------------------------------------------------ *)
(* Regions                                                            *)
(* ------------------------------------------------------------------ *)

let test_regions_split_by_load () =
  (* add -> load -> add : two regions of one node each *)
  let b = B.create () in
  let a = B.add b Ir.Op.Add in
  let ld = B.add_with b Ir.Op.Load [ a ] in
  let a2 = B.add_with b Ir.Op.Add [ ld ] in
  ignore a2;
  let dfg = B.finish b in
  let regions = Ir.Region.of_dfg dfg in
  check int "two regions" 2 (List.length regions);
  List.iter (fun r -> check int "region size" 1 r.Ir.Region.weight) regions

let test_regions_sorted_by_weight () =
  let b = B.create () in
  let a = B.add b Ir.Op.Add in
  let a1 = B.add_with b Ir.Op.Add [ a ] in
  ignore (B.add_with b Ir.Op.Store [ a1 ]);
  let x = B.add b Ir.Op.Mul in
  ignore x;
  let dfg = B.finish b in
  match Ir.Region.of_dfg dfg with
  | [ r1; r2 ] ->
    check int "big region first" 2 r1.Ir.Region.weight;
    check int "small region second" 1 r2.Ir.Region.weight
  | rs -> Alcotest.failf "expected 2 regions, got %d" (List.length rs)

let prop_regions_partition_valid_nodes =
  QCheck.Test.make ~name:"regions partition exactly the valid nodes" ~count:200
    Test_helpers.arb_small_dfg
    (fun dfg ->
      let n = Ir.Dfg.node_count dfg in
      let covered = Util.Bitset.create n in
      let disjoint = ref true in
      List.iter
        (fun r ->
          if Util.Bitset.intersects covered r.Ir.Region.members then disjoint := false;
          Util.Bitset.union_into covered r.Ir.Region.members)
        (Ir.Region.of_dfg dfg);
      let valid =
        Util.Bitset.of_list n (List.filter (Ir.Dfg.valid_node dfg) (Ir.Dfg.nodes dfg))
      in
      !disjoint && Util.Bitset.equal covered valid)

(* ------------------------------------------------------------------ *)
(* CFG / WCET                                                         *)
(* ------------------------------------------------------------------ *)

let tiny_block label cycles =
  (* [cycles] 1-cycle adds *)
  let b = B.create () in
  for _ = 1 to cycles do
    ignore (B.add b Ir.Op.Add)
  done;
  { Ir.Cfg.label; body = B.finish b }

let test_wcet_seq () =
  let cfg =
    { Ir.Cfg.name = "seq";
      code = Ir.Cfg.seq [ Ir.Cfg.Block (tiny_block "a" 3); Ir.Cfg.Block (tiny_block "b" 4) ] }
  in
  check int "wcet of seq" 7 (Ir.Cfg.wcet cfg)

let test_wcet_loop () =
  let cfg =
    { Ir.Cfg.name = "loop"; code = Ir.Cfg.loop 10 (Ir.Cfg.Block (tiny_block "body" 5)) }
  in
  check int "wcet of loop" 50 (Ir.Cfg.wcet cfg)

let test_wcet_if_takes_max () =
  let cfg =
    { Ir.Cfg.name = "if";
      code =
        Ir.Cfg.If
          (tiny_block "cond" 1, Ir.Cfg.Block (tiny_block "then" 10),
           Ir.Cfg.Block (tiny_block "else" 3)) }
  in
  check int "wcet of if" 11 (Ir.Cfg.wcet cfg)

let test_wcet_with_override () =
  let blk = tiny_block "body" 5 in
  let cfg = { Ir.Cfg.name = "loop"; code = Ir.Cfg.loop 10 (Ir.Cfg.Block blk) } in
  let cost b = if b == blk then 2 else Ir.Cfg.block_cycles b in
  check int "accelerated wcet" 20 (Ir.Cfg.wcet_with cfg ~cost)

let test_wcet_frequencies () =
  let hot = tiny_block "hot" 5 and cold = tiny_block "cold" 2 in
  let cfg =
    { Ir.Cfg.name = "f";
      code =
        Ir.Cfg.seq
          [ Ir.Cfg.loop 4 (Ir.Cfg.If (tiny_block "c" 1, Ir.Cfg.Block hot, Ir.Cfg.Block cold)) ] }
  in
  let freqs = Ir.Cfg.wcet_frequencies cfg in
  check int "hot on wcet path" 4 (List.assq hot freqs);
  check bool "cold not on wcet path" true (not (List.mem_assq cold freqs))

let test_profile_splits_branches () =
  let hot = tiny_block "hot" 5 and cold = tiny_block "cold" 2 in
  let cfg =
    { Ir.Cfg.name = "f";
      code = Ir.Cfg.loop 8 (Ir.Cfg.If (tiny_block "c" 1, Ir.Cfg.Block hot, Ir.Cfg.Block cold)) }
  in
  let prof = Ir.Cfg.profile cfg in
  check (Alcotest.float 1e-9) "then freq" 4. (List.assq hot prof);
  check (Alcotest.float 1e-9) "else freq" 4. (List.assq cold prof)

let test_block_size_stats () =
  let cfg =
    { Ir.Cfg.name = "s";
      code = Ir.Cfg.seq [ Ir.Cfg.Block (tiny_block "a" 2); Ir.Cfg.Block (tiny_block "b" 6) ] }
  in
  check int "max bb" 6 (Ir.Cfg.max_block_size cfg);
  check (Alcotest.float 1e-9) "avg bb" 4. (Ir.Cfg.avg_block_size cfg)

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_pair_counts () =
  let t = Ir.Trace.of_list [ "A"; "B"; "C"; "B"; "C"; "B"; "A" ] in
  let counts = Ir.Trace.pair_counts ~keep:(fun _ -> true) t in
  check int "AB pairs" 2 (List.assoc ("A", "B") counts);
  check int "BC pairs" 4 (List.assoc ("B", "C") counts);
  check bool "no direct AC" true (not (List.mem_assoc ("A", "C") counts))

let test_trace_pair_counts_filters_software () =
  (* Dropping B exposes A-C adjacency — the RCG construction rule. *)
  let t = Ir.Trace.of_list [ "A"; "B"; "C"; "B"; "C"; "B"; "A" ] in
  let counts = Ir.Trace.pair_counts ~keep:(fun l -> l <> "B") t in
  check int "AC pairs after filtering" 2 (List.assoc ("A", "C") counts)

let test_trace_reconfigurations () =
  let t = Ir.Trace.of_list [ "A"; "B"; "C"; "B"; "C"; "B"; "A" ] in
  (* A in config 0, B and C in config 1: switches A->B and B->A = 2. *)
  let config_of = function
    | "A" -> Some 0
    | "B" | "C" -> Some 1
    | _ -> None
  in
  check int "two reconfigurations" 2 (Ir.Trace.reconfigurations ~config_of t);
  (* every loop its own configuration *)
  let each = function "A" -> Some 0 | "B" -> Some 1 | "C" -> Some 2 | _ -> None in
  check int "all switches" 6 (Ir.Trace.reconfigurations ~config_of:each t);
  (* B in software: A..C..C..A -> A->C, C->A = 2 switches *)
  let sw_b = function "A" -> Some 0 | "C" -> Some 2 | _ -> None in
  check int "software loop skipped" 2 (Ir.Trace.reconfigurations ~config_of:sw_b t)

let test_trace_repeat () =
  let t = Ir.Trace.repeat [ "x"; "y" ] 3 in
  check Alcotest.(list string) "repeat" [ "x"; "y"; "x"; "y"; "x"; "y" ]
    (Ir.Trace.to_list t)

let prop_reconfig_le_trace_length =
  QCheck.Test.make ~name:"reconfigurations bounded by trace length" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (int_bound 4))
    (fun loops ->
      let trace = Ir.Trace.of_list (List.map string_of_int loops) in
      let config_of l = Some (int_of_string l mod 2) in
      Ir.Trace.reconfigurations ~config_of trace <= Ir.Trace.length trace)

(* ------------------------------------------------------------------ *)
(* Dot export                                                         *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_dot_dfg () =
  let dfg, _, a1, m, _, _ = diamond () in
  let dot = Ir.Dot.dfg dfg in
  check bool "digraph" true (contains dot "digraph dfg");
  check bool "has load node" true (contains dot "0: load");
  check bool "has edge" true (contains dot "n0 -> n1");
  let highlighted =
    Ir.Dot.dfg ~highlight:[ (Util.Bitset.of_list 5 [ a1; m ], "CI0") ] dfg
  in
  check bool "has cluster" true (contains highlighted "subgraph cluster_0");
  check bool "cluster label" true (contains highlighted "label=\"CI0\"")

let test_dot_cfg () =
  let cfg =
    { Ir.Cfg.name = "t";
      code =
        Ir.Cfg.seq
          [ Ir.Cfg.loop 4 (Ir.Cfg.Block (tiny_block "body" 3));
            Ir.Cfg.Block (tiny_block "tail" 2) ] }
  in
  let dot = Ir.Dot.cfg cfg in
  check bool "digraph" true (contains dot "digraph cfg");
  check bool "loop backedge" true (contains dot "x4");
  check bool "labels blocks" true (contains dot "body")

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ir"
    [ ( "dfg-builder",
        [ Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "rejects backward edge" `Quick test_builder_rejects_backward_edge;
          Alcotest.test_case "rejects arity overflow" `Quick test_builder_rejects_arity_overflow;
          Alcotest.test_case "sw cycles" `Quick test_sw_cycles ] );
      ( "dfg-sets",
        [ Alcotest.test_case "io counting" `Quick test_io_counting;
          Alcotest.test_case "implicit live-ins" `Quick test_implicit_live_ins_counted;
          Alcotest.test_case "convexity" `Quick test_convexity;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "critical path across threads" `Quick test_critical_path_threads;
          Alcotest.test_case "reachability" `Quick test_reachability;
          qt prop_topo_respects_edges;
          qt prop_convex_superset_of_closure;
          qt prop_singletons_convex;
          qt prop_convexity_bruteforce;
          qt prop_io_nonnegative ] );
      ( "regions",
        [ Alcotest.test_case "split by load" `Quick test_regions_split_by_load;
          Alcotest.test_case "sorted by weight" `Quick test_regions_sorted_by_weight;
          qt prop_regions_partition_valid_nodes ] );
      ( "cfg-wcet",
        [ Alcotest.test_case "seq" `Quick test_wcet_seq;
          Alcotest.test_case "loop" `Quick test_wcet_loop;
          Alcotest.test_case "if takes max" `Quick test_wcet_if_takes_max;
          Alcotest.test_case "cost override" `Quick test_wcet_with_override;
          Alcotest.test_case "wcet frequencies" `Quick test_wcet_frequencies;
          Alcotest.test_case "profile splits branches" `Quick test_profile_splits_branches;
          Alcotest.test_case "block size stats" `Quick test_block_size_stats ] );
      ( "dot",
        [ Alcotest.test_case "dfg export" `Quick test_dot_dfg;
          Alcotest.test_case "cfg export" `Quick test_dot_cfg ] );
      ( "trace",
        [ Alcotest.test_case "pair counts" `Quick test_trace_pair_counts;
          Alcotest.test_case "software filtering" `Quick test_trace_pair_counts_filters_software;
          Alcotest.test_case "reconfiguration replay" `Quick test_trace_reconfigurations;
          Alcotest.test_case "repeat" `Quick test_trace_repeat;
          qt prop_reconfig_le_trace_length ] ) ]

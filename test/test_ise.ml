module B = Ir.Dfg.Builder

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let default_cons = Isa.Hw_model.default_constraints

(* ------------------------------------------------------------------ *)
(* Enumeration                                                        *)
(* ------------------------------------------------------------------ *)

let prop_enumerated_all_legal =
  QCheck.Test.make ~name:"every enumerated candidate is legal" ~count:100
    Test_helpers.arb_small_dfg
    (fun dfg ->
      Ise.Enumerate.connected dfg
      |> List.for_all (fun ci ->
             Isa.Custom_inst.feasible dfg ci.Isa.Custom_inst.nodes
             && Isa.Custom_inst.gain ci > 0
             && Ir.Dfg.is_connected dfg ci.Isa.Custom_inst.nodes))

let prop_enumerated_distinct =
  QCheck.Test.make ~name:"enumeration never emits duplicates" ~count:100
    Test_helpers.arb_small_dfg
    (fun dfg ->
      let keys =
        Ise.Enumerate.connected dfg
        |> List.map (fun ci -> Util.Bitset.elements ci.Isa.Custom_inst.nodes)
      in
      List.length keys = List.length (List.sort_uniq compare keys))

let prop_enumeration_respects_allowed =
  QCheck.Test.make ~name:"candidates stay inside the allowed set" ~count:100
    Test_helpers.arb_dfg_with_set
    (fun (dfg, allowed) ->
      Ise.Enumerate.connected ~allowed dfg
      |> List.for_all (fun ci ->
             Util.Bitset.subset ci.Isa.Custom_inst.nodes allowed))

let test_enumeration_finds_mac_chain () =
  (* mul -> add -> add chain: the 3-op pattern must be found. *)
  let b = B.create () in
  let m = B.add b Ir.Op.Mul in
  let a1 = B.add_with b Ir.Op.Add [ m ] in
  let a2 = B.add_with b Ir.Op.Add [ a1 ] in
  ignore (B.add_with b Ir.Op.Store [ a2 ]);
  let dfg = B.finish b in
  let cands = Ise.Enumerate.connected dfg in
  check bool "3-op candidate found" true
    (List.exists (fun ci -> ci.Isa.Custom_inst.size = 3) cands)

let test_enumeration_budget_caps () =
  let dfg = (Kernels.find "sha" |> Ir.Cfg.blocks |> List.hd).Ir.Cfg.body in
  let tight = { Ise.Enumerate.max_size = 4; max_explored = 500; max_candidates = 50 } in
  let cands = Ise.Enumerate.connected ~budget:tight dfg in
  check bool "cap respected" true (List.length cands <= 50);
  check bool "sizes capped" true
    (List.for_all (fun ci -> ci.Isa.Custom_inst.size <= 4) cands)

let test_miso_single_output () =
  let prng = Util.Prng.create 33 in
  let dfg = Kernels.Blockgen.block prng ~size:40 Kernels.Blockgen.dsp_mix in
  let misos = Ise.Enumerate.max_miso dfg in
  check bool "at least one MISO" true (misos <> []);
  List.iter
    (fun ci ->
      check int "single output" 1 ci.Isa.Custom_inst.outputs;
      check bool "inputs within ports" true
        (ci.Isa.Custom_inst.inputs <= default_cons.Isa.Hw_model.max_inputs))
    misos

let test_best_single_cut () =
  let b = B.create () in
  let m = B.add b Ir.Op.Mul in
  let a1 = B.add_with b Ir.Op.Add [ m ] in
  ignore (B.add_with b Ir.Op.Store [ a1 ]);
  let dfg = B.finish b in
  let n = Ir.Dfg.node_count dfg in
  let allowed = Util.Bitset.of_list n (Ir.Dfg.nodes dfg) in
  match Ise.Enumerate.best_single_cut ~allowed dfg with
  | Some best ->
    (* mul+add saves 1 cycle, single ops save 0; best is the pair. *)
    check int "best is the MAC" 2 best.Isa.Custom_inst.size
  | None -> Alcotest.fail "expected a cut"

(* ------------------------------------------------------------------ *)
(* Selection                                                          *)
(* ------------------------------------------------------------------ *)

let candidates_of_kernel_block name =
  let cfg = Kernels.find name in
  let blocks = Ir.Cfg.blocks cfg in
  let big =
    List.fold_left
      (fun acc b -> if Ir.Dfg.node_count b.Ir.Cfg.body > Ir.Dfg.node_count acc.Ir.Cfg.body then b else acc)
      (List.hd blocks) blocks
  in
  Ise.Select.candidates_of_block ~budget:Ise.Enumerate.small_budget ~block:0
    ~freq:10. big.Ir.Cfg.body

let prop_greedy_within_budget =
  QCheck.Test.make ~name:"greedy selection stays within budget" ~count:50
    QCheck.(int_range 0 500)
    (fun budget ->
      let cands = candidates_of_kernel_block "lms" in
      let sel = Ise.Select.greedy ~budget cands in
      Ise.Select.selection_valid ~budget sel)

let prop_bnb_within_budget_and_beats_greedy =
  QCheck.Test.make ~name:"branch-and-bound valid and >= greedy" ~count:20
    QCheck.(int_range 0 400)
    (fun budget ->
      let cands = candidates_of_kernel_block "edn" in
      let top =
        List.sort
          (fun a b -> compare (Ise.Select.total_gain b) (Ise.Select.total_gain a))
          cands
        |> List.filteri (fun i _ -> i < 15)
      in
      let g = Ise.Select.greedy ~budget top in
      let b = Ise.Select.branch_and_bound ~budget top in
      Ise.Select.selection_valid ~budget b
      && Ise.Select.gain_of b +. 1e-9 >= Ise.Select.gain_of g)

let prop_bnb_exact_small =
  QCheck.Test.make ~name:"branch-and-bound is exact on small candidate sets"
    ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 50 400))
    (fun (seed, budget) ->
      let prng = Util.Prng.create seed in
      let dfg =
        Kernels.Blockgen.block prng ~loads:2 ~stores:1 ~size:25
          Kernels.Blockgen.crypto_mix
      in
      let cands =
        Ise.Select.candidates_of_block ~budget:Ise.Enumerate.small_budget
          ~block:0 ~freq:1. dfg
        |> List.sort (fun a b ->
               compare (Ise.Select.total_gain b) (Ise.Select.total_gain a))
        |> List.filteri (fun i _ -> i < 10)
      in
      let bnb = Ise.Select.branch_and_bound ~budget cands in
      (* brute force over all subsets of <= 10 candidates *)
      let arr = Array.of_list cands in
      let n = Array.length arr in
      let best = ref 0. in
      for mask = 0 to (1 lsl n) - 1 do
        let chosen = ref [] in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 then chosen := arr.(i) :: !chosen
        done;
        if Ise.Select.selection_valid ~budget !chosen then
          best := Float.max !best (Ise.Select.gain_of !chosen)
      done;
      Float.abs (Ise.Select.gain_of bnb -. !best) < 1e-6)

let test_knapsack_exact () =
  (* hand-made disjoint candidates in distinct blocks *)
  let mk block gain_ops area_ops =
    let b = B.create () in
    for _ = 1 to gain_ops do ignore (B.add b Ir.Op.Add) done;
    ignore area_ops;
    let dfg = B.finish b in
    let nodes = Util.Bitset.of_list gain_ops (List.init gain_ops (fun i -> i)) in
    { Ise.Select.ci = Isa.Custom_inst.make_unchecked dfg nodes; block; freq = 1. }
  in
  (* areas: 10,20,30 deci-adders (1,2,3 adds) with gains 0,1,2 *)
  let c1 = mk 0 1 0 and c2 = mk 1 2 0 and c3 = mk 2 3 0 in
  let sel = Ise.Select.knapsack ~budget:30 [ c1; c2; c3 ] in
  (* best at 30 units: c3 alone (gain 2) or c1+c2 (gain 1): expect c3 *)
  check int "one candidate" 1 (List.length sel);
  check bool "picked the 3-add pattern" true
    (List.exists (fun c -> c.Ise.Select.ci.Isa.Custom_inst.size = 3) sel)

let test_knapsack_rejects_overlap () =
  let b = B.create () in
  let x = B.add b Ir.Op.Add in
  let y = B.add_with b Ir.Op.Add [ x ] in
  let dfg = B.finish b in
  let c1 =
    { Ise.Select.ci = Isa.Custom_inst.make dfg (Util.Bitset.of_list 2 [ x; y ]);
      block = 0; freq = 1. }
  in
  let c2 =
    { Ise.Select.ci = Isa.Custom_inst.make dfg (Util.Bitset.of_list 2 [ x ]);
      block = 0; freq = 1. }
  in
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Select.knapsack: candidates overlap")
    (fun () -> ignore (Ise.Select.knapsack ~budget:100 [ c1; c2 ]))

let prop_selection_no_conflicts =
  QCheck.Test.make ~name:"greedy never selects overlapping candidates" ~count:30
    QCheck.(int_range 50 1000)
    (fun budget ->
      let cands = candidates_of_kernel_block "ndes" in
      let sel = Ise.Select.greedy ~budget cands in
      Ise.Select.selection_valid ~budget sel)

(* ------------------------------------------------------------------ *)
(* Curve generation                                                   *)
(* ------------------------------------------------------------------ *)

let test_curve_generation_lms () =
  let cfg = Kernels.find "lms" in
  let curve = Ise.Curve.generate ~params:Ise.Curve.small cfg in
  check bool "more than the software point" true (Isa.Config.size curve > 1);
  check bool "improves cycles" true
    (Isa.Config.min_cycles curve < Isa.Config.base_cycles curve);
  (* base cycles consistent with the profiled estimate *)
  check int "base cycles" (Ise.Curve.base_cycles cfg) (Isa.Config.base_cycles curve)

let test_curve_speedup_in_published_range () =
  (* Chapter 3 reports 3.5%..27% per-task gains; allow a wide margin. *)
  let cfg = Kernels.find "g721decode" in
  let curve = Ise.Curve.generate ~params:Ise.Curve.small cfg in
  let base = float_of_int (Isa.Config.base_cycles curve) in
  let best = float_of_int (Isa.Config.min_cycles curve) in
  let gain_pct = (base -. best) /. base *. 100. in
  check bool "gain between 1% and 50%" true (gain_pct > 1. && gain_pct < 50.)

(* ------------------------------------------------------------------ *)
(* Kernel table                                                       *)
(* ------------------------------------------------------------------ *)

(* A printable structure of a CFG: statements, labels, and per node
   its operation, operands and live-out mark.  (The DFG's lazy
   closures rule out polymorphic equality.) *)
let rec cfg_shape (s : Ir.Cfg.stmt) =
  match s with
  | Block b ->
    let d = b.body in
    let node v =
      Printf.sprintf "%s<%s%s"
        (Ir.Op.name (Ir.Dfg.kind d v))
        (String.concat "," (List.map string_of_int (Ir.Dfg.preds d v)))
        (if Ir.Dfg.live_out d v then "!" else "")
    in
    Printf.sprintf "%s{%s}" b.label (String.concat " " (List.map node (Ir.Dfg.nodes d)))
  | Seq l -> "[" ^ String.concat ";" (List.map cfg_shape l) ^ "]"
  | If (c, t, e) ->
    Printf.sprintf "if %s then %s else %s" (cfg_shape (Block c)) (cfg_shape t)
      (cfg_shape e)
  | Loop (k, body) -> Printf.sprintf "loop %d %s" k (cfg_shape body)

(* [Blockgen.block] as it stood when it rebuilt the array of available
   values for every operation; the appending builder must draw the same
   numbers and pick the same operands. *)
let quadratic_block ?(loads = 0) ?(stores = 0) ?(window = 12) ?(live_in_bias = 0.15)
    prng ~size mix =
  let module B = Ir.Dfg.Builder in
  let module Prng = Util.Prng in
  let draw_kind prng mix =
    let total = List.fold_left (fun acc (_, w) -> acc + w) 0 mix in
    let roll = Prng.int prng total in
    let rec pick acc = function
      | [] -> assert false
      | (k, w) :: rest -> if roll < acc + w then k else pick (acc + w) rest
    in
    pick 0 mix
  in
  let b = B.create () in
  let values = ref [] in
  for _ = 1 to loads do
    values := B.add b Ir.Op.Load :: !values
  done;
  for _ = 1 to size do
    let kind = draw_kind prng mix in
    let avail = Array.of_list (List.rev !values) in
    let pool = Array.length avail in
    let operands = ref [] in
    for _ = 1 to Ir.Op.arity kind do
      if pool > 0 && Prng.float prng 1.0 >= live_in_bias then begin
        let lo = max 0 (pool - window) in
        let pick = avail.(Prng.in_range prng lo (pool - 1)) in
        if not (List.mem pick !operands) then operands := pick :: !operands
      end
    done;
    values := B.add_with b kind !operands :: !values
  done;
  let rec take n = function
    | v :: rest when n > 0 -> v :: take (n - 1) rest
    | _ -> []
  in
  List.iter (fun v -> ignore (B.add_with b Ir.Op.Store [ v ])) (take stores !values);
  B.finish b

let dfg_shape d =
  List.map
    (fun v -> (Ir.Op.name (Ir.Dfg.kind d v), Ir.Dfg.preds d v, Ir.Dfg.succs d v, Ir.Dfg.live_out d v))
    (Ir.Dfg.nodes d)

let test_blockgen_matches_quadratic_builder () =
  let mixes =
    Kernels.Blockgen.[| crypto_mix; dsp_mix; control_mix |]
  in
  for size = 0 to 300 do
    List.iter
      (fun mix ->
        let loads = size mod 5 and stores = size mod 7 in
        let window = if size mod 2 = 0 then None else Some (1 + (size mod 16)) in
        let live_in_bias = if size mod 3 = 0 then Some 0.5 else None in
        let p_new = Util.Prng.create size and p_old = Util.Prng.create size in
        let got =
          Kernels.Blockgen.block ~loads ~stores ?window ?live_in_bias p_new ~size mix
        in
        let want = quadratic_block ~loads ~stores ?window ?live_in_bias p_old ~size mix in
        if dfg_shape got <> dfg_shape want then
          Alcotest.failf "size %d, %d loads, %d stores: blocks differ" size loads stores;
        check Alcotest.int "same draws" (Util.Prng.int p_old 1_000_000)
          (Util.Prng.int p_new 1_000_000))
      (Array.to_list mixes)
  done

let test_kernel_table () =
  let names =
    [ "adpcm_enc"; "adpcm_dec"; "sha"; "jfdctint"; "g721encode"; "g721decode";
      "lms"; "ndes"; "rijndael"; "3des"; "aes"; "blowfish"; "crc32"; "jpeg_enc";
      "jpeg_dec"; "compress"; "susan"; "md5"; "edn"; "fft"; "viterbi"; "sobel" ]
  in
  let all = Kernels.all () in
  check (Alcotest.list Alcotest.string) "all () names, in order" names
    (List.map fst all);
  List.iter
    (fun (name, (cfg : Ir.Cfg.t)) ->
      check Alcotest.string "all () entry named by its key" name cfg.name;
      match Kernels.find_opt name with
      | Some built -> check Alcotest.string "find_opt builds its key" name built.name
      | None -> Alcotest.failf "find_opt %S is None" name)
    all;
  check bool "unknown name" true (Kernels.find_opt "nope" = None);
  List.iter
    (fun name ->
      check bool (name ^ ": two builds are equal") true
        (cfg_shape (Kernels.find name).code = cfg_shape (Kernels.find name).code))
    [ "sha"; "3des"; "g721encode"; "g721decode" ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ise"
    [ ( "enumeration",
        [ qt prop_enumerated_all_legal;
          qt prop_enumerated_distinct;
          qt prop_enumeration_respects_allowed;
          Alcotest.test_case "finds MAC chain" `Quick test_enumeration_finds_mac_chain;
          Alcotest.test_case "budget caps" `Quick test_enumeration_budget_caps;
          Alcotest.test_case "MISO single output" `Quick test_miso_single_output;
          Alcotest.test_case "best single cut" `Quick test_best_single_cut ] );
      ( "selection",
        [ qt prop_greedy_within_budget;
          qt prop_bnb_within_budget_and_beats_greedy;
          qt prop_bnb_exact_small;
          Alcotest.test_case "knapsack exact" `Quick test_knapsack_exact;
          Alcotest.test_case "knapsack rejects overlap" `Quick test_knapsack_rejects_overlap;
          qt prop_selection_no_conflicts ] );
      ( "curve",
        [ Alcotest.test_case "lms curve" `Quick test_curve_generation_lms;
          Alcotest.test_case "g721 speedup in range" `Quick test_curve_speedup_in_published_range ] );
      ( "kernels",
        [ Alcotest.test_case "table builds each kernel by name" `Quick test_kernel_table;
          Alcotest.test_case "blockgen matches quadratic builder" `Quick
            test_blockgen_matches_quadratic_builder ] ) ]

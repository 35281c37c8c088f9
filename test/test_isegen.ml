(* ISEGEN iterative candidate generation and the pluggable hardware
   cost backends: legality, determinism, anytime behaviour, the
   auto-dispatch switch, and the cap-breaking claim (on a block where
   exhaustive enumeration saturates, the iterative generator finds a
   strictly better candidate). *)

module B = Ir.Dfg.Builder
module Bitset = Util.Bitset

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let cons = Isa.Hw_model.default_constraints

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

let ci_sig (ci : Isa.Custom_inst.t) =
  (Bitset.elements ci.Isa.Custom_inst.nodes, Isa.Custom_inst.gain ci, ci.area)

let legal dfg (ci : Isa.Custom_inst.t) =
  Isa.Custom_inst.feasible ~constraints:cons dfg ci.Isa.Custom_inst.nodes
  && Isa.Custom_inst.gain ci > 0
  && Ir.Dfg.is_connected dfg ci.Isa.Custom_inst.nodes

(* A diamond of multiplies: a feeds b and c, both feed d.  {a,b,d} is
   connected but not convex (the a->c->d path escapes), so finding the
   whole diamond exercises the hull repair on every grow move. *)
let diamond () =
  let b = B.create () in
  let a = B.add b Ir.Op.Mul in
  let l = B.add_with b Ir.Op.Mul [ a ] in
  let r = B.add_with b Ir.Op.Mul [ a ] in
  let d = B.add_with b Ir.Op.Add [ l; r ] in
  ignore (B.add_with b Ir.Op.Store [ d ]);
  (B.finish b, [ a; l; r; d ])

let big_block seed size =
  Kernels.Blockgen.block (Util.Prng.create seed) ~size Kernels.Blockgen.dsp_mix

let best_gain = function
  | [] -> 0
  | cis ->
    List.fold_left (fun acc ci -> max acc (Isa.Custom_inst.gain ci)) 0 cis

(* ------------------------------------------------------------------ *)
(* Generation                                                         *)
(* ------------------------------------------------------------------ *)

let test_diamond_optimum () =
  let dfg, nodes = diamond () in
  let cands = Ise.Isegen.generate dfg in
  check bool "candidates found" true (cands <> []);
  let full = Bitset.of_list (Ir.Dfg.node_count dfg) nodes in
  check bool "whole diamond found (hull repair)" true
    (List.exists
       (fun (ci : Isa.Custom_inst.t) -> Bitset.equal ci.nodes full)
       cands);
  (* the sorted head matches the exhaustive oracle's best gain *)
  let oracle = best_gain (Ise.Enumerate.connected dfg) in
  check int "head gain equals oracle best" oracle
    (best_gain [ List.hd cands ])

let prop_isegen_all_legal =
  QCheck.Test.make ~name:"every isegen candidate is legal" ~count:80
    Test_helpers.arb_small_dfg
    (fun dfg -> List.for_all (legal dfg) (Ise.Isegen.generate dfg))

let prop_isegen_respects_allowed =
  QCheck.Test.make ~name:"isegen stays inside the allowed set" ~count:80
    Test_helpers.arb_dfg_with_set
    (fun (dfg, allowed) ->
      Ise.Isegen.generate ~allowed dfg
      |> List.for_all (fun (ci : Isa.Custom_inst.t) ->
             Bitset.subset ci.nodes allowed))

let prop_isegen_distinct =
  QCheck.Test.make ~name:"isegen never emits duplicates" ~count:80
    Test_helpers.arb_small_dfg
    (fun dfg ->
      let keys =
        Ise.Isegen.generate dfg
        |> List.map (fun (ci : Isa.Custom_inst.t) -> Bitset.elements ci.nodes)
      in
      List.length keys = List.length (List.sort_uniq compare keys))

let test_same_seed_deterministic () =
  let dfg = big_block 7 48 in
  let params = { Ise.Isegen.default_params with Ise.Isegen.seed = 11 } in
  let a = Ise.Isegen.generate ~params dfg in
  let b = Ise.Isegen.generate ~params dfg in
  check bool "same seed, same pool" true
    (List.map ci_sig a = List.map ci_sig b)

let test_distinct_seeds_diverge () =
  (* more seeds than restarts, so the PRNG picks the starting nodes and
     distinct seeds walk different parts of the block *)
  let dfg = big_block 7 60 in
  let params seed =
    { Ise.Isegen.default_params with Ise.Isegen.seed; restarts = 4 }
  in
  let runs =
    List.map
      (fun s -> List.map ci_sig (Ise.Isegen.generate ~params:(params s) dfg))
      [ 1; 2; 3; 4; 5 ]
  in
  let distinct = List.length (List.sort_uniq compare runs) in
  check bool "at least two of five seeds differ" true (distinct > 1)

let test_best_cut_is_head () =
  let dfg = Test_helpers.biggest_block "sha" in
  let n = Ir.Dfg.node_count dfg in
  let allowed = Bitset.of_list n (Ir.Dfg.nodes dfg) in
  let params = { Ise.Isegen.default_params with Ise.Isegen.restarts = 8 } in
  match (Ise.Isegen.best_cut ~params ~allowed dfg,
         Ise.Isegen.generate ~params ~allowed dfg) with
  | Some best, hd :: _ -> check bool "best_cut = head" true (ci_sig best = ci_sig hd)
  | None, [] -> ()
  | _ -> Alcotest.fail "best_cut and generate disagree about emptiness"

(* ------------------------------------------------------------------ *)
(* Guard (anytime)                                                    *)
(* ------------------------------------------------------------------ *)

let test_guard_anytime_cut () =
  let dfg = Test_helpers.biggest_block "sha" in
  let params = { Ise.Isegen.default_params with Ise.Isegen.restarts = 8 } in
  let full = Ise.Isegen.generate ~params dfg in
  let guard = Engine.Guard.create ~fuel:25 () in
  let partial = Ise.Isegen.generate ~guard ~params dfg in
  (match Engine.Guard.status guard with
   | Engine.Guard.Partial _ -> ()
   | Engine.Guard.Exact -> Alcotest.fail "25 fuel units never exhausted");
  check bool "anytime pool is legal" true (List.for_all (legal dfg) partial);
  let full_keys =
    List.map (fun (ci : Isa.Custom_inst.t) -> Bitset.elements ci.nodes) full
  in
  check bool "anytime pool is a subset of the full pool" true
    (List.for_all
       (fun (ci : Isa.Custom_inst.t) ->
         List.mem (Bitset.elements ci.nodes) full_keys)
       partial);
  check bool "truncated run found less or equal" true
    (List.length partial <= List.length full)

(* ------------------------------------------------------------------ *)
(* Cap saturation + auto dispatch                                     *)
(* ------------------------------------------------------------------ *)

let tight = { Ise.Enumerate.max_size = 4; max_explored = 500; max_candidates = 50 }

let test_cap_saturation_counter () =
  let dfg = Test_helpers.biggest_block "sha" in
  let before = int_of_float (Obs.Metrics.sum "enumerate.cap_saturated") in
  let cands, saturation = Ise.Enumerate.connected_full ~budget:tight dfg in
  (match saturation with
   | Some sat ->
     check bool "reason is a stable label" true
       (List.mem
          (Ise.Enumerate.saturation_reason sat)
          [ "max_candidates"; "max_explored" ])
   | None -> Alcotest.fail "tight budget on sha's biggest block must saturate");
  check bool "candidates still returned" true (cands <> []);
  check int "one saturation counts once" (before + 1)
    (int_of_float (Obs.Metrics.sum "enumerate.cap_saturated"));
  let cells =
    String.split_on_char '\n' (Obs.Prometheus.render ())
    |> List.filter (fun l -> String.starts_with ~prefix:"enumerate_cap_saturated" l)
  in
  check bool "exposed" true (cells <> []);
  check bool "only reason-labelled cells" true
    (List.for_all
       (fun l -> String.starts_with ~prefix:"enumerate_cap_saturated_total{reason=" l)
       cells)

let test_isegen_breaks_the_cap () =
  (* On a block where the tight exhaustive budget saturates, the
     iterative generator must find a strictly better candidate. *)
  let dfg = Test_helpers.biggest_block "sha" in
  let capped, saturation = Ise.Enumerate.connected_full ~budget:tight dfg in
  check bool "exhaustive saturated" true (saturation <> None);
  let isegen = Ise.Isegen.generate dfg in
  check bool "isegen strictly beats the saturated enumeration" true
    (best_gain isegen > best_gain capped)

(* The cap-breaking floor: on at least one block that saturates the
   small exhaustive budget, ISEGEN must bank 1.2x the gain a selector
   gets from the saturated pool. *)
let test_isegen_gain_floor () =
  let breaks (_, dfg) =
    let capped, saturation =
      Ise.Enumerate.connected_full ~budget:Ise.Enumerate.small_budget dfg
    in
    let isegen =
      Ise.Isegen.generate ~params:(Test_helpers.cap_breaking_params dfg) dfg
    in
    let ratio =
      Test_helpers.selected_gain dfg isegen
      /. Float.max 1e-9 (Test_helpers.selected_gain dfg capped)
    in
    saturation <> None && ratio >= 1.2
  in
  check bool "a saturated block where isegen banks >= 1.2x" true
    (List.exists breaks (Test_helpers.cap_breaking_blocks ()))

let test_auto_switches () =
  let dfg = Test_helpers.biggest_block "sha" in
  let before = int_of_float (Obs.Metrics.sum "isegen.auto_switches") in
  let auto =
    Ise.Select.generate_candidates ~budget:tight ~generator:Ise.Isegen.Auto dfg
  in
  let isegen = Ise.Isegen.generate dfg in
  check bool "auto used the isegen pool" true
    (List.map ci_sig auto = List.map ci_sig isegen);
  check bool "switch counted" true
    (int_of_float (Obs.Metrics.sum "isegen.auto_switches") > before)

let test_auto_stays_exhaustive () =
  let dfg, _ = diamond () in
  let auto = Ise.Select.generate_candidates ~generator:Ise.Isegen.Auto dfg in
  let exhaustive = Ise.Enumerate.connected dfg in
  check bool "auto equals exhaustive below the caps" true
    (List.map ci_sig auto = List.map ci_sig exhaustive)

(* ------------------------------------------------------------------ *)
(* Hardware cost backends                                             *)
(* ------------------------------------------------------------------ *)

let test_uniform_evaluate_identity () =
  let dfg, nodes = diamond () in
  let ci = Isa.Custom_inst.make dfg (Bitset.of_list (Ir.Dfg.node_count dfg) nodes) in
  let u = Isa.Custom_inst.evaluate_with Isa.Hw_model.uniform dfg ci in
  check bool "uniform re-evaluation is the identity" true (ci_sig u = ci_sig ci)

let test_riscv_costs_differ () =
  (* div + add: 32000 ps at 8333 ps/cycle = 4 cycles under uniform,
     22400 ps at 10000 ps/cycle = 3 under riscv; riscv also charges
     register-port area. *)
  let b = B.create () in
  let d = B.add b Ir.Op.Div in
  let a = B.add_with b Ir.Op.Add [ d ] in
  ignore (B.add_with b Ir.Op.Store [ a ]);
  let dfg = B.finish b in
  let set = Bitset.of_list (Ir.Dfg.node_count dfg) [ d; a ] in
  let ci = Isa.Custom_inst.make dfg set in
  let r = Isa.Custom_inst.evaluate_with Isa.Hw_model.riscv dfg ci in
  check int "uniform latency" 4 ci.Isa.Custom_inst.hw_cycles;
  check int "riscv latency" 3 r.Isa.Custom_inst.hw_cycles;
  check bool "riscv charges port area" true
    (r.Isa.Custom_inst.area
     > Isa.Hw_model.set_op_area_with Isa.Hw_model.riscv dfg set);
  check bool "node set unchanged" true
    (Bitset.equal r.Isa.Custom_inst.nodes ci.Isa.Custom_inst.nodes)

let test_backend_registry () =
  let name_of = function
    | Some b -> b.Isa.Hw_model.name
    | None -> "<none>"
  in
  check string "uniform registered" "uniform"
    (name_of (Isa.Hw_model.backend_of_name "uniform"));
  check string "riscv registered" "riscv"
    (name_of (Isa.Hw_model.backend_of_name "riscv"));
  check string "unknown rejected" "<none>"
    (name_of (Isa.Hw_model.backend_of_name "tta"))

let test_riscv_curve_params_distinct () =
  let p = { Ise.Curve.small with Ise.Curve.hw = Isa.Hw_model.riscv } in
  check bool "cache keys distinguish backends" true
    (Ise.Curve.params_key p <> Ise.Curve.params_key Ise.Curve.small)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                      *)
(* ------------------------------------------------------------------ *)

let curve_line generator =
  let dfg_spec =
    { Check.Instance.kinds = [ Ir.Op.Mul; Ir.Op.Add ];
      edges = [ (0, 1) ];
      live_outs = [] }
  in
  let instance =
    { Check.Instance.tasks = []; budget = 0; eps = 1.0; dfg = dfg_spec }
  in
  Batch.Protocol.request_line
    { Batch.Protocol.id = "t0"; op = Batch.Protocol.Curve; instance; generator }

let test_protocol_generator_roundtrip () =
  let line = curve_line Ise.Isegen.Isegen in
  check bool "non-default generator serialised" true
    (contains ~needle:"\"generator\"" line);
  (match Batch.Protocol.parse_request line with
   | Ok req ->
     check bool "generator parsed back" true
       (req.Batch.Protocol.generator = Ise.Isegen.Isegen);
     check string "request_line round-trips" line
       (Batch.Protocol.request_line req)
   | Error msg -> Alcotest.fail msg);
  (* absence on the wire means exhaustive, and stays absent *)
  let legacy = curve_line Ise.Isegen.Exhaustive in
  check bool "default generator omitted from the wire" true
    (not (contains ~needle:"generator" legacy));
  match Batch.Protocol.parse_request legacy with
  | Ok req ->
    check bool "absent generator parses as exhaustive" true
      (req.Batch.Protocol.generator = Ise.Isegen.Exhaustive)
  | Error msg -> Alcotest.fail msg

let test_protocol_keys_distinguish_generators () =
  let prep g =
    match Batch.Protocol.parse_request (curve_line g) with
    | Ok req -> (Batch.Protocol.prepare req).Batch.Protocol.key
    | Error msg -> Alcotest.fail msg
  in
  let exhaustive = prep Ise.Isegen.Exhaustive in
  let isegen = prep Ise.Isegen.Isegen in
  check bool "curve keys differ by generator" true (exhaustive <> isegen);
  check bool "legacy key has no tag" true
    (not (contains ~needle:"+isegen" exhaustive));
  check bool "isegen key is tagged" true
    (contains ~needle:"curve+isegen-" isegen)

let test_exhaustive_batch_byte_identity () =
  (* an explicit exhaustive generator answers byte-identically to a
     legacy request without the field *)
  match
    (Batch.Protocol.parse_request (curve_line Ise.Isegen.Exhaustive),
     Batch.Protocol.parse_request (curve_line Ise.Isegen.Isegen))
  with
  | Ok legacy, Ok isegen ->
    let explicit = { legacy with Batch.Protocol.generator = Ise.Isegen.Exhaustive } in
    check string "explicit exhaustive = legacy bytes"
      (Batch.Service.respond legacy)
      (Batch.Service.respond explicit);
    check bool "isegen response still renders" true
      (String.length (Batch.Service.respond isegen) > 0)
  | _ -> Alcotest.fail "parse failed"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "isegen"
    [ ( "generation",
        [ Alcotest.test_case "diamond optimum via hull repair" `Quick
            test_diamond_optimum;
          qt prop_isegen_all_legal;
          qt prop_isegen_respects_allowed;
          qt prop_isegen_distinct;
          Alcotest.test_case "same seed deterministic" `Quick
            test_same_seed_deterministic;
          Alcotest.test_case "distinct seeds diverge" `Quick
            test_distinct_seeds_diverge;
          Alcotest.test_case "best_cut is the sorted head" `Quick
            test_best_cut_is_head ] );
      ( "guard",
        [ Alcotest.test_case "anytime cut under fuel" `Quick
            test_guard_anytime_cut ] );
      ( "dispatch",
        [ Alcotest.test_case "cap saturation counter" `Quick
            test_cap_saturation_counter;
          Alcotest.test_case "isegen breaks the cap" `Quick
            test_isegen_breaks_the_cap;
          Alcotest.test_case "isegen gain floor on saturated blocks" `Quick
            test_isegen_gain_floor;
          Alcotest.test_case "auto switches on saturation" `Quick
            test_auto_switches;
          Alcotest.test_case "auto stays exhaustive below caps" `Quick
            test_auto_stays_exhaustive ] );
      ( "hw-model",
        [ Alcotest.test_case "uniform evaluation is identity" `Quick
            test_uniform_evaluate_identity;
          Alcotest.test_case "riscv costs differ" `Quick test_riscv_costs_differ;
          Alcotest.test_case "backend registry" `Quick test_backend_registry;
          Alcotest.test_case "curve params distinguish backends" `Quick
            test_riscv_curve_params_distinct ] );
      ( "protocol",
        [ Alcotest.test_case "generator round-trips" `Quick
            test_protocol_generator_roundtrip;
          Alcotest.test_case "keys distinguish generators" `Quick
            test_protocol_keys_distinguish_generators;
          Alcotest.test_case "exhaustive batch byte-identity" `Quick
            test_exhaustive_batch_byte_identity ] ) ]

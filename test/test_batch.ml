let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

module P = Batch.Protocol
module R = Check.Repro

let instances ~seed n =
  List.init n (fun i -> Check.Gen.instance (Util.Prng.create (seed + i)))

(* ------------------------------------------------------------------ *)
(* Repro codec round-trips (the batch wire format)                    *)
(* ------------------------------------------------------------------ *)

let test_emitter_matches_instance_to_json () =
  List.iter
    (fun inst ->
      check string "json_of_instance emission" (Check.Instance.to_json inst)
        (R.to_string (R.json_of_instance inst)))
    (instances ~seed:100 200)

let test_parse_emit_idempotent () =
  List.iter
    (fun inst ->
      let once = R.to_string (R.json_of_instance inst) in
      check string "parse-emit fixpoint" once (R.to_string (R.parse once));
      let decoded = R.decode_instance (R.parse once) in
      check bool "decode round-trip" true (Check.Instance.equal inst decoded))
    (instances ~seed:300 200)

let test_parser_rejects_malformed_unicode_escape () =
  (* used to raise Failure("int_of_string") instead of Parse_error *)
  List.iter
    (fun text ->
      match R.parse text with
      | _ -> Alcotest.failf "parsed %S" text
      | exception R.Parse_error _ -> ())
    [ {|"\uZZZZ"|}; {|"\u00_0"|}; {|"\u"|}; {|"\u12"|} ]

let test_as_int_rejects_unrepresentable () =
  check int "2^53 still exact" 9007199254740992 (R.as_int (R.Num 9007199254740992.));
  (match R.as_int (R.Num 1e30) with
   | _ -> Alcotest.fail "accepted 1e30 as an int"
   | exception R.Parse_error _ -> ());
  match R.as_int (R.Num 0.5) with
  | _ -> Alcotest.fail "accepted 0.5 as an int"
  | exception R.Parse_error _ -> ()

let test_request_line_round_trip () =
  List.iteri
    (fun i inst ->
      let op =
        List.nth [ P.Edf; P.Rms; P.Pareto_exact; P.Pareto_approx; P.Curve ] (i mod 5)
      in
      let req = { P.id = Printf.sprintf "r%d" i; op; instance = inst;
                  generator = Ise.Isegen.Exhaustive }
      in
      match P.parse_request (P.request_line req) with
      | Ok back ->
        check string "id" req.P.id back.P.id;
        check bool "op" true (req.P.op = back.P.op);
        check bool "instance" true (Check.Instance.equal req.P.instance back.P.instance)
      | Error msg -> Alcotest.failf "round trip failed: %s" msg)
    (instances ~seed:500 50)

let test_parse_request_errors () =
  let bad l =
    match P.parse_request l with
    | Ok _ -> Alcotest.failf "accepted %S" l
    | Error _ -> ()
  in
  bad "not json";
  bad {|{"id": "x", "op": "nope", "instance": {}}|};
  bad {|{"id": "x", "op": "edf"}|};
  (* a structurally fine but invalid instance: period 0 *)
  bad
    {|{"id": "x", "op": "edf", "instance": {"budget": 1, "eps": 0.5, "tasks": [{"period": 0, "base": 5, "points": []}], "dfg": {"kinds": [], "edges": [], "live_outs": []}}}|}

(* ------------------------------------------------------------------ *)
(* Structural hashing                                                 *)
(* ------------------------------------------------------------------ *)

let test_hash_stable_across_runs () =
  (* the key is a pure function of the canonical bytes: pin one so an
     accidental change to hashing or canonicalization fails loudly *)
  let inst =
    { Check.Instance.tasks =
        [ { Check.Instance.period = 100;
            base = 50;
            points = [ { Check.Instance.area = 5; cycles = 30 } ] } ];
      budget = 7;
      eps = 0.5;
      dfg = { Check.Instance.kinds = []; edges = []; live_outs = [] } }
  in
  let key = (P.prepare
       { P.id = "s"; op = P.Edf; instance = inst;
         generator = Ise.Isegen.Exhaustive })
      .P.key in
  check string "pinned key" "edf-9a2649cf7ae86115" key;
  check string "pure function of the bytes" key
    (P.prepare
       { P.id = "other"; op = P.Edf; instance = inst;
         generator = Ise.Isegen.Exhaustive })
      .P.key

let test_hash_collision_sanity () =
  (* 10k generated instances: equal keys must mean equal canonical
     bytes — i.e. FNV never conflates distinct canonical instances *)
  let by_key = Hashtbl.create 4096 in
  let distinct_keys = Hashtbl.create 4096 in
  List.iter
    (fun inst ->
      let p =
        P.prepare
          { P.id = "c"; op = P.Edf; instance = inst;
            generator = Ise.Isegen.Exhaustive }
      in
      (* the edf key hashes only the fields the op consumes: budget and
         tasks (eps and the DFG are blanked) *)
      let bytes =
        Check.Instance.to_json
          { p.P.canonical with
            Check.Instance.eps = 1.0;
            dfg = { Check.Instance.kinds = []; edges = []; live_outs = [] } }
      in
      Hashtbl.replace distinct_keys p.P.key ();
      match Hashtbl.find_opt by_key p.P.key with
      | None -> Hashtbl.add by_key p.P.key bytes
      | Some other -> check string "no collision" other bytes)
    (instances ~seed:1000 10_000);
  check bool "stream is actually diverse" true (Hashtbl.length distinct_keys > 5_000)

let test_canonicalization_invariance () =
  List.iter
    (fun (inst : Check.Instance.t) ->
      let canonical, _ = Batch.Canon.instance inst in
      let permuted =
        { inst with Check.Instance.tasks = List.rev inst.Check.Instance.tasks }
      in
      let renumbered =
        { inst with Check.Instance.dfg = Batch.Props.renumber_dfg inst.Check.Instance.dfg }
      in
      check bool "task order erased" true
        (Check.Instance.equal canonical (fst (Batch.Canon.instance permuted)));
      check bool "node numbering erased" true
        (Check.Instance.equal canonical (fst (Batch.Canon.instance renumbered)));
      check bool "canonicalization preserves validity" true
        (Check.Instance.valid canonical))
    (instances ~seed:2000 300)

let test_canonical_permutation_projects_tasks () =
  List.iter
    (fun (inst : Check.Instance.t) ->
      let canonical, perm = Batch.Canon.instance inst in
      let ctasks = Array.of_list canonical.Check.Instance.tasks in
      List.iteri
        (fun i (ts : Check.Instance.task_spec) ->
          let c = ctasks.(perm.(i)) in
          check int "period" ts.Check.Instance.period c.Check.Instance.period;
          check int "base" ts.Check.Instance.base c.Check.Instance.base)
        inst.Check.Instance.tasks)
    (instances ~seed:2500 200)

(* ------------------------------------------------------------------ *)
(* EDF sweep                                                          *)
(* ------------------------------------------------------------------ *)

let test_run_sweep_matches_run () =
  List.iter
    (fun (inst : Check.Instance.t) ->
      let tasks = Check.Instance.tasks inst in
      let b = inst.Check.Instance.budget in
      let budgets = [ 0; b / 3; b / 2; b; b + 1; (2 * b) + 5 ] in
      let swept = Core.Edf_select.run_sweep ~budgets tasks in
      check int "one selection per budget" (List.length budgets) (List.length swept);
      List.iter2
        (fun budget sel ->
          check bool "bit-identical to run" true
            (Core.Edf_select.run ~budget tasks = sel))
        budgets swept)
    (instances ~seed:3000 100)

let test_run_sweep_edges () =
  check bool "empty budgets" true (Core.Edf_select.run_sweep ~budgets:[] [] = []);
  (match Core.Edf_select.run_sweep ~budgets:[ -1 ] [] with
   | _ -> Alcotest.fail "accepted a negative budget"
   | exception Invalid_argument _ -> ());
  let sels = Core.Edf_select.run_sweep ~budgets:[ 0; 3 ] [] in
  check int "no tasks" 2 (List.length sels)

(* ------------------------------------------------------------------ *)
(* Memo                                                               *)
(* ------------------------------------------------------------------ *)

let test_memo_round_trip () =
  let m = Engine.Memo.create ~shards:4 ~spill:false ~namespace:"test-memo" () in
  check bool "miss" true (Engine.Memo.find m ~key:"a" = None);
  Engine.Memo.store m ~key:"a" "payload";
  check bool "hit" true (Engine.Memo.find m ~key:"a" = Some "payload");
  let v, hit = Engine.Memo.find_or_compute m ~key:"a" (fun () -> assert false) in
  check bool "find_or_compute hit" true (hit && v = "payload");
  let v, hit = Engine.Memo.find_or_compute m ~key:"b" (fun () -> "fresh") in
  check bool "find_or_compute miss computes" true ((not hit) && v = "fresh");
  check int "resident entries" 2 (Engine.Memo.size m);
  check int "shards" 4 (Engine.Memo.shards m);
  Engine.Memo.clear m;
  check int "cleared" 0 (Engine.Memo.size m);
  match Engine.Memo.create ~shards:0 ~namespace:"x" () with
  | _ -> Alcotest.fail "accepted 0 shards"
  | exception Invalid_argument _ -> ()

let with_temp_cache f =
  let saved_dir = Engine.Cache.dir () in
  let saved_enabled = Engine.Cache.enabled () in
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "isecustom-test-memo-%d" (Unix.getpid ()))
  in
  Engine.Cache.set_dir tmp;
  Engine.Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      ignore (Engine.Cache.clear ());
      Engine.Cache.set_dir saved_dir;
      Engine.Cache.set_enabled saved_enabled)
    f

let test_memo_spills_to_cache () =
  with_temp_cache @@ fun () ->
  let m = Engine.Memo.create ~shards:2 ~spill:true ~namespace:"test-spill" () in
  Engine.Memo.store m ~key:"k" "spilled";
  (* a fresh memo has empty shards but finds the entry on disk and
     promotes it *)
  let m2 = Engine.Memo.create ~shards:2 ~spill:true ~namespace:"test-spill" () in
  check bool "spill hit" true (Engine.Memo.find m2 ~key:"k" = Some "spilled");
  check int "promoted into the shard" 1 (Engine.Memo.size m2);
  (* namespaces isolate *)
  let m3 = Engine.Memo.create ~shards:2 ~spill:true ~namespace:"test-other" () in
  check bool "namespace isolation" true (Engine.Memo.find m3 ~key:"k" = None)

(* ------------------------------------------------------------------ *)
(* Service                                                            *)
(* ------------------------------------------------------------------ *)

let test_batch_equals_sequential_streams () =
  List.iter
    (fun inst ->
      let reqs = Batch.Props.stream_of inst in
      let sequential = List.map Batch.Service.respond reqs in
      let memo = Engine.Memo.create ~shards:4 ~spill:false ~namespace:"test-svc" () in
      let batched, stats =
        Engine.Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
        Batch.Service.run ~pool ~memo reqs
      in
      check bool "byte-identical" true (batched = sequential);
      check bool "dedup fired" true (stats.Batch.Service.dedup_hits > 0);
      check bool "sweep fired" true (stats.Batch.Service.swept > 1);
      let warm, warm_stats = Batch.Service.run ~memo reqs in
      check bool "warm byte-identical" true (warm = sequential);
      check int "warm answers come from the memo" warm_stats.Batch.Service.unique
        warm_stats.Batch.Service.memo_hits)
    (instances ~seed:4000 20);
  (* the large stream: 50 distinct requests, each sent 4 times, at
     every pool width and then memo-warm; dedup alone must answer at
     least half of it cold *)
  let reqs = Test_helpers.op_stream ~prefix:"b" ~seed:100 ~instances:10 ~copies:4 in
  let sequential = List.map Batch.Service.respond reqs in
  List.iter
    (fun jobs ->
      let memo = Engine.Memo.create ~shards:8 ~spill:false ~namespace:"test-svc" () in
      Engine.Parallel.Pool.with_pool ~jobs @@ fun pool ->
      let batched, stats = Batch.Service.run ~pool ~memo reqs in
      check bool (Printf.sprintf "byte-identical at %d jobs" jobs) true
        (batched = sequential);
      check bool "cold hit-rate >= 0.5" true (Batch.Service.hit_rate stats >= 0.5);
      let warm, _ = Batch.Service.run ~pool ~memo reqs in
      check bool "memo-warm byte-identical" true (warm = sequential))
    [ 1; 2; 4 ]

let test_service_stats_accounting () =
  let inst = Check.Gen.instance (Util.Prng.create 77) in
  let reqs = Batch.Props.stream_of inst in
  let _, stats = Batch.Service.run reqs in
  check int "requests" (List.length reqs) stats.Batch.Service.requests;
  check int "dedup + unique = requests" stats.Batch.Service.requests
    (stats.Batch.Service.unique + stats.Batch.Service.dedup_hits);
  check bool "hit rate in [0, 1]" true
    (Batch.Service.hit_rate stats >= 0. && Batch.Service.hit_rate stats <= 1.);
  let empty_lines, empty = Batch.Service.run [] in
  check bool "empty stream" true
    (empty_lines = [] && empty.Batch.Service.requests = 0
    && Batch.Service.hit_rate empty = 0.)

let () =
  Alcotest.run "batch"
    [ ( "repro-codec",
        [ Alcotest.test_case "emitter matches Instance.to_json" `Quick
            test_emitter_matches_instance_to_json;
          Alcotest.test_case "parse-emit idempotent" `Quick test_parse_emit_idempotent;
          Alcotest.test_case "malformed \\u escapes rejected" `Quick
            test_parser_rejects_malformed_unicode_escape;
          Alcotest.test_case "as_int range guard" `Quick
            test_as_int_rejects_unrepresentable;
          Alcotest.test_case "request line round-trip" `Quick
            test_request_line_round_trip;
          Alcotest.test_case "parse_request errors" `Quick test_parse_request_errors ] );
      ( "hashing",
        [ Alcotest.test_case "stable pinned key" `Quick test_hash_stable_across_runs;
          Alcotest.test_case "collision sanity over 10k instances" `Slow
            test_hash_collision_sanity;
          Alcotest.test_case "canonicalization invariance" `Quick
            test_canonicalization_invariance;
          Alcotest.test_case "permutation projects tasks" `Quick
            test_canonical_permutation_projects_tasks ] );
      ( "edf-sweep",
        [ Alcotest.test_case "run_sweep ≡ run" `Quick test_run_sweep_matches_run;
          Alcotest.test_case "edge cases" `Quick test_run_sweep_edges ] );
      ( "memo",
        [ Alcotest.test_case "round trip" `Quick test_memo_round_trip;
          Alcotest.test_case "spill + promotion" `Quick test_memo_spills_to_cache ] );
      ( "service",
        [ Alcotest.test_case "batch ≡ sequential, cold and warm" `Slow
            test_batch_equals_sequential_streams;
          Alcotest.test_case "stats accounting" `Quick test_service_stats_accounting ]
      ) ]

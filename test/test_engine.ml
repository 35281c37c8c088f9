(* Engine subsystem tests: the domain pool (determinism, exception
   propagation), the persistent cache (round-trip, version invalidation,
   corruption tolerance) and the telemetry counters. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------ Parallel ------------------------------ *)

let test_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun jobs ->
      Engine.Parallel.Pool.with_pool ~jobs @@ fun pool ->
      check (Alcotest.list int)
        (Printf.sprintf "jobs=%d" jobs)
        (List.map f xs)
        (Engine.Parallel.Pool.map pool f xs))
    [ 1; 2; 4; 7 ]

let test_map_empty_and_singleton () =
  Engine.Parallel.Pool.with_pool ~jobs:4 @@ fun pool ->
  check (Alcotest.list int) "empty" [] (Engine.Parallel.Pool.map pool succ []);
  check (Alcotest.list int) "singleton" [ 2 ]
    (Engine.Parallel.Pool.map pool succ [ 1 ])

exception Boom of int

let test_map_propagates_exception () =
  Engine.Parallel.Pool.with_pool ~jobs:3 @@ fun pool ->
  match
    Engine.Parallel.Pool.map pool
      (fun x -> if x = 5 then raise (Boom x) else x)
      (List.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 5 -> ()

let test_map_reduce_order () =
  let xs = List.init 50 Fun.id in
  let got =
    Engine.Parallel.Pool.with_pool ~jobs:4 @@ fun pool ->
    Engine.Parallel.Pool.map_reduce pool ~map:string_of_int
      ~reduce:(fun acc s -> acc ^ "," ^ s)
      "" xs
  in
  let want =
    List.fold_left (fun acc s -> acc ^ "," ^ s) "" (List.map string_of_int xs)
  in
  check Alcotest.string "in-order fold" want got

(* The engine's headline guarantee: curve generation on a domain pool is
   bit-identical to the sequential path, for every modelled kernel.
   Kernels are outer pool items and each generation nests per-block /
   per-budget items onto the same pool. *)
let test_curves_parallel_equals_sequential () =
  let kernels = Kernels.all () in
  let seq =
    List.map (fun (_, cfg) -> Ise.Curve.generate ~params:Ise.Curve.small cfg)
      kernels
  in
  let par =
    Engine.Parallel.Pool.with_pool ~jobs:4 @@ fun pool ->
    Engine.Parallel.Pool.map pool
      (fun (_, cfg) -> Ise.Curve.generate ~pool ~params:Ise.Curve.small cfg)
      kernels
  in
  List.iteri
    (fun i (a, b) ->
      let name = fst (List.nth kernels i) in
      check bool (name ^ ": base cycles equal") true
        (Isa.Config.base_cycles a = Isa.Config.base_cycles b);
      check bool (name ^ ": curve points bit-identical") true
        (Isa.Config.points a = Isa.Config.points b))
    (List.combine seq par)

(* ------------------------------- Cache -------------------------------- *)

let with_temp_cache f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "isecache-test-%d" (Unix.getpid ()))
  in
  let saved = Engine.Cache.dir () in
  Engine.Cache.set_dir dir;
  Fun.protect
    ~finally:(fun () ->
      ignore (Engine.Cache.clear ());
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      Engine.Cache.set_dir saved)
    f

let test_cache_round_trip () =
  with_temp_cache @@ fun () ->
  let value = ([ 1; 2; 3 ], "payload", 3.25) in
  Engine.Cache.store ~namespace:"test" ~key:"k1" value;
  check bool "stored value reads back" true
    (Engine.Cache.find ~namespace:"test" ~key:"k1" () = Some value);
  check bool "other key misses" true
    ((Engine.Cache.find ~namespace:"test" ~key:"k2" ()
       : (int list * string * float) option)
    = None);
  (match Engine.Cache.entries () with
   | [ e ] ->
     check Alcotest.string "namespace" "test" e.Engine.Cache.namespace;
     check Alcotest.string "key" "k1" e.Engine.Cache.key
   | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
  check int "clear removes one file" 1 (Engine.Cache.clear ());
  check bool "empty after clear" true (Engine.Cache.entries () = [])

let test_cache_version_invalidation () =
  with_temp_cache @@ fun () ->
  Engine.Cache.store_versioned
    ~version:(Engine.Cache.format_version - 1)
    ~namespace:"test" ~key:"old" 42;
  check bool "outdated entry reads as a miss" true
    ((Engine.Cache.find ~namespace:"test" ~key:"old" () : int option) = None)

let test_cache_truncated_file () =
  with_temp_cache @@ fun () ->
  Engine.Cache.store ~namespace:"test" ~key:"t" (Array.init 256 Fun.id);
  let file = Engine.Cache.file_of ~namespace:"test" ~key:"t" in
  let size = (Unix.stat file).Unix.st_size in
  Unix.truncate file (size / 2);
  check bool "truncated entry reads as a miss, not an exception" true
    ((Engine.Cache.find ~namespace:"test" ~key:"t" () : int array option)
    = None);
  (* still visible to `cache show` and reclaimable by `cache clear` *)
  (match Engine.Cache.entries () with
   | [ e ] ->
     check Alcotest.string "reported unreadable" "<unreadable>"
       e.Engine.Cache.namespace
   | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
  check int "clear reclaims it" 1 (Engine.Cache.clear ())

let test_cache_disabled () =
  with_temp_cache @@ fun () ->
  Engine.Cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Engine.Cache.set_enabled true) @@ fun () ->
  Engine.Cache.store ~namespace:"test" ~key:"d" 1;
  check bool "store is a no-op" true (Engine.Cache.entries () = []);
  check bool "find misses" true
    ((Engine.Cache.find ~namespace:"test" ~key:"d" () : int option) = None)

let counter name = int_of_float (Obs.Metrics.sum name)

let family name =
  List.find_opt
    (fun (f : Obs.Metrics.family) -> f.Obs.Metrics.fam_name = name)
    (Obs.Metrics.dump ())

let test_cache_telemetry () =
  with_temp_cache @@ fun () ->
  let h0 = counter "cache.hits" and m0 = counter "cache.misses" in
  Engine.Cache.store ~namespace:"test" ~key:"h" 7;
  ignore (Engine.Cache.find ~namespace:"test" ~key:"h" () : int option);
  ignore (Engine.Cache.find ~namespace:"test" ~key:"absent" () : int option);
  check int "hit counted" (h0 + 1) (counter "cache.hits");
  check int "miss counted" (m0 + 1) (counter "cache.misses")

(* ------------------------- counters and timers ------------------------ *)

let test_telemetry_counters () =
  Obs.Metrics.reset ~kind:Obs.Metrics.Counter ();
  check int "untouched counter reads 0" 0 (counter "t.c");
  Obs.Metrics.inc "t.c";
  Obs.Metrics.inc ~by:4. "t.c";
  check int "inc + inc ~by accumulate" 5 (counter "t.c");
  Obs.Metrics.inc ~by:0. "t.zero";
  check bool "a zero inc creates no family" true (family "t.zero" = None);
  check bool "a plain counter family" true
    (match family "t.c" with
     | Some f ->
       f.Obs.Metrics.fam_kind = Obs.Metrics.Counter
       && not f.Obs.Metrics.fam_unit_s
     | None -> false);
  Obs.Metrics.reset ~kind:Obs.Metrics.Counter ();
  check int "reset zeroes" 0 (counter "t.c")

let test_telemetry_timers () =
  Obs.Metrics.reset ~kind:Obs.Metrics.Counter ();
  let x = Obs.Metrics.time_s "t.t" (fun () -> 41 + 1) in
  check int "time_s returns the thunk's result" 42 x;
  check bool "time accumulated" true (Obs.Metrics.sum "t.t" >= 0.);
  Obs.Metrics.inc_s "t.t" 1.5;
  check bool "inc_s accumulates" true (Obs.Metrics.sum "t.t" >= 1.5);
  (try Obs.Metrics.time_s "t.exn" (fun () -> failwith "boom")
   with Failure _ -> ());
  check bool "timer recorded even on exception, as a seconds counter" true
    (match family "t.exn" with
     | Some f ->
       f.Obs.Metrics.fam_kind = Obs.Metrics.Counter && f.Obs.Metrics.fam_unit_s
     | None -> false)

let test_telemetry_pipeline_monotone () =
  Obs.Metrics.reset ~kind:Obs.Metrics.Counter ();
  let cfg = Kernels.find "crc32" in
  ignore (Ise.Curve.generate ~params:Ise.Curve.small cfg);
  let cand1 = counter "enumerate.candidates" in
  check bool "enumeration reported" true (cand1 > 0);
  check int "one curve generated" 1 (counter "curve.curves_generated");
  ignore (Ise.Curve.generate ~params:Ise.Curve.small cfg);
  check bool "counters are monotone" true
    (counter "enumerate.candidates" >= cand1);
  check int "second generation counted" 2 (counter "curve.curves_generated");
  check bool "curve timer advanced" true (Obs.Metrics.sum "curve.generate" > 0.)

let () =
  Alcotest.run "engine"
    [ ( "parallel",
        [ Alcotest.test_case "map matches List.map" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "map on empty / singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "map propagates exceptions" `Quick
            test_map_propagates_exception;
          Alcotest.test_case "map_reduce folds in order" `Quick
            test_map_reduce_order;
          Alcotest.test_case "curves bit-identical across domains" `Quick
            test_curves_parallel_equals_sequential ] );
      ( "cache",
        [ Alcotest.test_case "round trip" `Quick test_cache_round_trip;
          Alcotest.test_case "version invalidation" `Quick
            test_cache_version_invalidation;
          Alcotest.test_case "truncated file recovery" `Quick
            test_cache_truncated_file;
          Alcotest.test_case "disabled cache" `Quick test_cache_disabled;
          Alcotest.test_case "hit/miss telemetry" `Quick test_cache_telemetry ] );
      ( "telemetry",
        [ Alcotest.test_case "counters" `Quick test_telemetry_counters;
          Alcotest.test_case "timers" `Quick test_telemetry_timers;
          Alcotest.test_case "pipeline counters monotone" `Quick
            test_telemetry_pipeline_monotone ] ) ]

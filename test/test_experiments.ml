(* Integration tests: the cheap experiment drivers run end-to-end and
   produce the landmarks the paper's tables contain.  The expensive
   sweeps (f3.3, t6.1, ...) are exercised by `isecustom experiment`
   (no id runs the whole evaluation), not here. *)

let check = Alcotest.check
let bool = Alcotest.bool

let render (e : Experiments.Registry.experiment) =
  let buffer = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buffer in
  Experiments.Report.render fmt (e.run ());
  Format.pp_print_flush fmt ();
  Buffer.contents buffer

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let run_and_expect id needles () =
  match Experiments.Registry.find id with
  | None -> Alcotest.failf "experiment %s not registered" id
  | Some e ->
    let out = render e in
    List.iter
      (fun needle ->
        check bool
          (Printf.sprintf "%s output contains %S" id needle)
          true (contains out needle))
      needles

let test_registry_ids_unique () =
  let ids = Experiments.Registry.ids () in
  check bool "unique ids" true
    (List.length ids = List.length (List.sort_uniq compare ids));
  check bool "all found" true
    (List.for_all (fun id -> Experiments.Registry.find id <> None) ids)

let test_curve_cache_consistent () =
  (* the memo must return the same curve object semantics every time *)
  let a = Experiments.Curves.curve "lms" in
  let b = Experiments.Curves.curve "lms" in
  check bool "same base cycles" true
    (Isa.Config.base_cycles a = Isa.Config.base_cycles b);
  check bool "same points" true (Isa.Config.points a = Isa.Config.points b)

(* A cold warm-up of the Chapter 3 task-set kernels on a pool records
   one curve.generate_s latency sample per generated curve. *)
let test_cold_warm_records_latency () =
  let names =
    List.sort_uniq compare
      (List.concat_map Experiments.Curves.taskset_ch3 [ 1; 2; 3; 4; 5; 6 ])
  in
  Engine.Cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Engine.Cache.set_enabled true) @@ fun () ->
  Experiments.Curves.reset ();
  let s0 = Obs.Snapshot.take () in
  Engine.Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      Experiments.Curves.warm ~pool names);
  let d = Obs.Snapshot.delta ~before:s0 ~after:(Obs.Snapshot.take ()) in
  match Obs.Snapshot.hist_stats d "curve.generate_s" with
  | Some (h : Obs.Metrics.hstats) ->
    check Alcotest.int "one sample per kernel" (List.length names)
      h.Obs.Metrics.count
  | None -> Alcotest.fail "no curve.generate_s samples recorded"

(* Curves of both generators stay resident side by side: switching to
   ISEGEN and back serves the exhaustive curve from memory.  The disk
   cache is off, so a dropped memo would have to regenerate it. *)
let test_generator_switch_keeps_memo () =
  Engine.Cache.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Experiments.Curves.set_generator Ise.Isegen.Exhaustive;
      Engine.Cache.set_enabled true)
  @@ fun () ->
  let before = Experiments.Curves.curve "lms" in
  Experiments.Curves.set_generator Ise.Isegen.Isegen;
  ignore (Experiments.Curves.curve "lms" : Isa.Config.t);
  Experiments.Curves.set_generator Ise.Isegen.Exhaustive;
  let s0 = Obs.Snapshot.take () in
  let after = Experiments.Curves.curve "lms" in
  let d = Obs.Snapshot.delta ~before:s0 ~after:(Obs.Snapshot.take ()) in
  check (Alcotest.float 0.) "no curve generated" 0.
    (Obs.Snapshot.counter d "curve.curves_generated");
  check (Alcotest.float 0.) "one curve memo hit" 1.
    (Obs.Snapshot.counter ~labels:[ ("namespace", "curve") ] d "memo.hits");
  check bool "same curve" true (Isa.Config.points before = Isa.Config.points after)

(* Figs 5.3 and 5.4 read one driver run per (set, U) cell. *)
let test_ch5_driver_cell_runs_once () =
  let s0 = Obs.Snapshot.take () in
  let a = Experiments.Ch5.driver_cell 3 1.1 in
  let b = Experiments.Ch5.driver_cell 3 1.1 in
  let d = Obs.Snapshot.delta ~before:s0 ~after:(Obs.Snapshot.take ()) in
  let ns = [ ("namespace", "ch5.driver") ] in
  check (Alcotest.float 0.) "one miss" 1. (Obs.Snapshot.counter ~labels:ns d "memo.misses");
  check (Alcotest.float 0.) "one hit" 1. (Obs.Snapshot.counter ~labels:ns d "memo.hits");
  check bool "the same run and time" true (a == b)

(* A1 prints a timing column, so it has no golden file: pin its gain
   columns (with and without MLGP refinement) here. *)
let test_a1_gain_columns () =
  match Experiments.Registry.find "a1" with
  | None -> Alcotest.fail "experiment a1 not registered"
  | Some e ->
    let rows =
      String.split_on_char '\n' (render e)
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' line |> List.filter (( <> ) "") with
             | kernel :: g1 :: g0 :: _ when int_of_string_opt g1 <> None ->
               Some (kernel, int_of_string g1, int_of_string g0)
             | _ -> None)
    in
    check
      Alcotest.(list (triple string int int))
      "kernel, gain with refinement, gain without"
      [ ("sha", 260, 260); ("rijndael", 131, 129); ("blowfish", 249, 246);
        ("aes", 124, 120); ("adpcm_enc", 180, 175) ]
      rows

(* A4 prints a timing column too: pin its best-speedup column and the
   enumeration counters of its four lms curves, which the production-
   scale searches (up to 200 000 explored sets) must reproduce
   exactly. *)
let test_a4_budget_columns () =
  match Experiments.Registry.find "a4" with
  | None -> Alcotest.fail "experiment a4 not registered"
  | Some e ->
    let s0 = Obs.Snapshot.take () in
    let out = render e in
    let d = Obs.Snapshot.delta ~before:s0 ~after:(Obs.Snapshot.take ()) in
    let rows =
      String.split_on_char '\n' out
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' line |> List.filter (( <> ) "") with
             | budget :: explored :: speedup :: _ when int_of_string_opt explored <> None ->
               Some (budget, int_of_string explored, speedup)
             | _ -> None)
    in
    check
      Alcotest.(list (triple string int string))
      "budget, explored cap, best speedup"
      [ ("tiny", 500, "1.578x"); ("small", 6000, "1.633x");
        ("default", 60000, "1.633x"); ("large", 200000, "1.633x") ]
      rows;
    List.iter
      (fun (name, want) ->
        check (Alcotest.float 0.) name want (Obs.Snapshot.counter d name))
      [ ("enumerate.explored", 266_349.); ("enumerate.candidates", 365.);
        ("enumerate.cap_saturated", 4.) ]

let test_tasks_of_utilization () =
  let tasks = Experiments.Curves.tasks_of ~u:1.05 [ "lms"; "ndes" ] in
  check (Alcotest.float 0.02) "target utilization" 1.05
    (Rt.Task.set_utilization tasks)

let () =
  Alcotest.run "experiments"
    [ ( "registry",
        [ Alcotest.test_case "ids unique and findable" `Quick test_registry_ids_unique ] );
      ( "infrastructure",
        [ Alcotest.test_case "curve cache" `Quick test_curve_cache_consistent;
          Alcotest.test_case "cold warm-up records curve latency" `Quick
            test_cold_warm_records_latency;
          Alcotest.test_case "generator switch keeps curve memo" `Quick
            test_generator_switch_keeps_memo;
          Alcotest.test_case "chapter 5 driver cell runs once" `Quick
            test_ch5_driver_cell_runs_once;
          Alcotest.test_case "task builder" `Quick test_tasks_of_utilization ] );
      ( "drivers",
        [ Alcotest.test_case "t3.1 lists the six task sets" `Quick
            (run_and_expect "t3.1" [ "crc32, sha, jpeg_dec, blowfish"; "crc32, sha, blowfish, susan" ]);
          Alcotest.test_case "f3.2 reproduces the motivating example" `Quick
            (run_and_expect "f3.2"
               [ "NOT schedulable"; "optimal (Algorithm 1)"; "1.0000" ]);
          Alcotest.test_case "f6.4 reproduces solutions B and C" `Quick
            (run_and_expect "f6.4" [ "net 933K"; "net 1173K" ]);
          Alcotest.test_case "t5.2 lists the chapter-5 sets" `Quick
            (run_and_expect "t5.2" [ "3des, rijndael, sha, g721decode" ]);
          Alcotest.test_case "t4.1 notes the ispell substitution" `Quick
            (run_and_expect "t4.1" [ "md5" ]);
          Alcotest.test_case "a1 gain columns" `Quick test_a1_gain_columns;
          Alcotest.test_case "a4 budget columns and counters" `Quick
            test_a4_budget_columns ] ) ]

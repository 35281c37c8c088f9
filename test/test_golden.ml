(* The golden regression corpus: committed requests with committed
   expected responses, so any solver-output drift — solver behaviour,
   canonicalization, hashing, serialization — fails tier-1 instead of
   waiting for the fuzzer to stumble on it.  Regenerate deliberately
   with `make golden-update`. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (if String.trim l = "" then acc else l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* dune runtest runs in test/ (where the (deps) copies land); dune exec
   from the project root sees the source tree instead *)
let golden file =
  let local = Filename.concat "golden" file in
  if Sys.file_exists local then local else Filename.concat "test/golden" file

let cases = lazy (read_lines (golden "cases.jsonl"))
let expected = lazy (read_lines (golden "expected.jsonl"))

let requests () =
  List.map
    (fun line ->
      match Batch.Protocol.parse_request line with
      | Ok r -> r
      | Error msg -> Alcotest.failf "golden case does not parse: %s\n%s" msg line)
    (Lazy.force cases)

let fresh_memo () =
  Engine.Memo.create ~shards:4 ~spill:false ~namespace:"golden" ()

let check_lines label actual =
  List.iteri
    (fun i (want, got) -> check string (Printf.sprintf "%s line %d" label i) want got)
    (List.combine (Lazy.force expected) actual)

let test_corpus_shape () =
  let n = List.length (Lazy.force cases) in
  check bool "about 20 cases" true (n >= 18 && n <= 30);
  check int "one response per request" n (List.length (Lazy.force expected));
  (* every op appears *)
  let ops = List.map (fun r -> r.Batch.Protocol.op) (requests ()) in
  List.iter
    (fun op -> check bool "op represented" true (List.mem op ops))
    [ Batch.Protocol.Edf; Rms; Pareto_exact; Pareto_approx; Curve ]

let test_sequential_matches_expected () =
  check_lines "sequential" (List.map Batch.Service.respond (requests ()))

(* The iterative-generator subset: the corpus must carry isegen curve
   requests, their keys must wear the generator tag (so they can never
   alias an exhaustive memo entry), and replaying just that subset must
   reproduce the committed bytes. *)
let test_isegen_subset_matches_expected () =
  let tagged = "curve+" ^ Ise.Isegen.choice_to_string Ise.Isegen.Isegen ^ "-" in
  let subset =
    List.filter
      (fun ((r : Batch.Protocol.request), _) ->
        r.Batch.Protocol.generator = Ise.Isegen.Isegen)
      (List.combine (requests ()) (Lazy.force expected))
  in
  check bool "corpus contains isegen cases" true (List.length subset >= 4);
  List.iteri
    (fun i ((req : Batch.Protocol.request), want) ->
      let prepared = Batch.Protocol.prepare req in
      check bool
        (Printf.sprintf "isegen key %d wears the generator tag" i)
        true
        (String.length prepared.Batch.Protocol.key > String.length tagged
         && String.sub prepared.Batch.Protocol.key 0 (String.length tagged)
            = tagged);
      check string
        (Printf.sprintf "isegen reply %d byte-identical" i)
        want
        (Batch.Service.respond req))
    subset

let test_batch_cold_matches_expected () =
  let lines, stats =
    Engine.Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
    Batch.Service.run ~pool ~memo:(fresh_memo ()) (requests ())
  in
  check_lines "cold batch" lines;
  check bool "corpus contains duplicates" true (stats.Batch.Service.dedup_hits > 0);
  check bool "corpus contains a sweep" true (stats.Batch.Service.swept > 1)

let test_batch_warm_matches_expected () =
  let memo = fresh_memo () in
  let reqs = requests () in
  let _ = Batch.Service.run ~memo reqs in
  let lines, stats = Batch.Service.run ~memo reqs in
  check_lines "warm batch" lines;
  check int "every unique request served from the memo"
    stats.Batch.Service.unique stats.Batch.Service.memo_hits

let read_file file = In_channel.with_open_bin file In_channel.input_all

(* The untimed experiments as `isecustom experiment ID` prints them,
   against the committed text.  A private cache directory keeps curves
   cached by earlier runs out of it.  f5.3 is golden too, but takes
   seconds, so CI diffs it outside the test suite. *)
let test_experiment_matches_golden id () =
  let want = read_file (golden (Filename.concat "experiments" (id ^ ".txt"))) in
  let e =
    match Experiments.Registry.find id with
    | Some e -> e
    | None -> Alcotest.failf "experiment %s not registered" id
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "isecustom-golden-%s-%d" id (Unix.getpid ()))
  in
  let saved = Engine.Cache.dir () in
  Engine.Cache.set_dir dir;
  Fun.protect
    ~finally:(fun () ->
      Engine.Cache.set_dir saved;
      Test_helpers.rm_rf dir)
  @@ fun () ->
  let buffer = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buffer in
  Experiments.Report.render fmt (e.run ());
  Format.pp_print_flush fmt ();
  check string (id ^ " output byte-identical") want (Buffer.contents buffer)

let golden_experiments =
  [ "t3.1"; "f3.1"; "f3.2"; "f3.3"; "f3.4"; "t4.1"; "f4.4"; "t5.1"; "t5.2";
    "f6.4"; "t6.2"; "f6.10"; "t7.1"; "f7.4"; "a2"; "a3" ]

let () =
  Alcotest.run "golden"
    [ ( "golden",
        [ Alcotest.test_case "corpus shape" `Quick test_corpus_shape;
          Alcotest.test_case "sequential matches expected" `Quick
            test_sequential_matches_expected;
          Alcotest.test_case "isegen subset matches expected" `Quick
            test_isegen_subset_matches_expected;
          Alcotest.test_case "batch (cold) matches expected" `Quick
            test_batch_cold_matches_expected;
          Alcotest.test_case "batch (warm) matches expected" `Quick
            test_batch_warm_matches_expected ]
        @ List.map
            (fun id ->
              Alcotest.test_case
                (Printf.sprintf "experiment %s matches golden" id)
                `Quick (test_experiment_matches_golden id))
            golden_experiments ) ]

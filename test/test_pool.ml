(* Pool tests: the persistent work-stealing pool's API contract —
   order preservation against the sequential reference, futures
   (including exceptions and repeated await), nested submission from
   inside work items, shutdown idempotence, crash isolation under
   stealing (Engine.Fault), telemetry accounting, and batch-service
   byte-identity through the pool. *)

module Pool = Engine.Parallel.Pool

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let with_fault_spec spec_string f =
  (match Engine.Fault.parse spec_string with
   | Ok spec -> Engine.Fault.configure spec
   | Error msg -> Alcotest.failf "bad fault spec %S: %s" spec_string msg);
  Fun.protect ~finally:Engine.Fault.disable f

(* ------------------------- order preservation ------------------------ *)

let test_map_order_preserved () =
  let xs = List.init 257 Fun.id in
  let f x = (x * 31) + 7 in
  let want = List.map f xs in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          Pool.with_pool ~jobs @@ fun pool ->
          check (Alcotest.list int)
            (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
            want
            (Pool.map ~chunk pool f xs))
        [ 1; 3; 64; 1000 ])
    [ 1; 2; 4 ]

let test_map_result_order_preserved () =
  let xs = List.init 100 Fun.id in
  let f x = x * x in
  let want = List.map (fun x -> Ok (f x)) xs in
  Pool.with_pool ~jobs:4 @@ fun pool ->
  List.iter
    (fun chunk ->
      check bool
        (Printf.sprintf "chunk=%d matches sequential" chunk)
        true
        (Pool.map_result ~chunk pool f xs = want))
    [ 1; 7; 50 ]

let test_map_many_ops_one_pool () =
  (* the point of persistence: many parallel calls against one handle *)
  Pool.with_pool ~jobs:3 @@ fun pool ->
  for round = 1 to 25 do
    let xs = List.init (10 * round) (fun i -> i + round) in
    let f x = x * round in
    check (Alcotest.list int)
      (Printf.sprintf "round %d" round)
      (List.map f xs) (Pool.map pool f xs)
  done

let test_bad_arguments_rejected () =
  (try
     ignore (Pool.create ~jobs:0 ());
     Alcotest.fail "jobs=0 accepted"
   with Invalid_argument _ -> ());
  Pool.with_pool ~jobs:2 @@ fun pool ->
  (try
     ignore (Pool.map ~chunk:0 pool Fun.id [ 1 ]);
     Alcotest.fail "chunk=0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Pool.map_result ~attempts:0 pool Fun.id [ 1 ]);
    Alcotest.fail "attempts=0 accepted"
  with Invalid_argument _ -> ()

(* ------------------------------ futures ------------------------------ *)

exception Boom of int

let test_submit_await () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  let futs = List.init 50 (fun i -> Pool.submit pool (fun () -> i * i)) in
  let got = List.map Pool.await futs in
  check (Alcotest.list int) "futures resolve in submission order"
    (List.init 50 (fun i -> i * i))
    got;
  (* await is repeatable *)
  check int "second await returns the same value" 49
    (Pool.await (List.nth futs 7))

let test_await_reraises () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let fut = Pool.submit pool (fun () -> raise (Boom 3)) in
  (match Pool.await fut with
   | _ -> Alcotest.fail "expected Boom"
   | exception Boom 3 -> ());
  (* and keeps re-raising on every await *)
  match Pool.await fut with
  | _ -> Alcotest.fail "expected Boom again"
  | exception Boom 3 -> ()

let test_submit_inline_on_one_job () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let ran = ref false in
  let fut = Pool.submit pool (fun () -> ran := true; 42) in
  check bool "jobs=1 thunk ran before await" true !ran;
  check int "inline future resolves" 42 (Pool.await fut)

let test_nested_submit () =
  (* a work item that itself maps and awaits on the same pool: helping
     makes this deadlock-free even when every domain is busy *)
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let outer =
    Pool.map pool
      (fun i ->
        let inner = Pool.map pool (fun j -> i + j) (List.init 5 Fun.id) in
        let fut = Pool.submit pool (fun () -> List.fold_left ( + ) 0 inner) in
        Pool.await fut)
      (List.init 20 Fun.id)
  in
  check (Alcotest.list int) "nested results"
    (List.init 20 (fun i -> (5 * i) + 10))
    outer

(* ----------------------------- shutdown ------------------------------ *)

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 () in
  check (Alcotest.list int) "pool works" [ 2; 3 ] (Pool.map pool succ [ 1; 2 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Pool.shutdown pool;
  (try
     ignore (Pool.map pool succ [ 1 ]);
     Alcotest.fail "map on a shut-down pool accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Pool.submit pool (fun () -> 1));
    Alcotest.fail "submit on a shut-down pool accepted"
  with Invalid_argument _ -> ()

let test_with_pool_shuts_down_on_exception () =
  let escaped = ref None in
  (try
     Pool.with_pool ~jobs:2 (fun pool ->
         escaped := Some pool;
         failwith "user code failed")
   with Failure _ -> ());
  match !escaped with
  | None -> Alcotest.fail "with_pool never ran its body"
  | Some pool -> (
    try
      ignore (Pool.map pool succ [ 1 ]);
      Alcotest.fail "pool survived with_pool"
    with Invalid_argument _ -> ())

(* -------------------------- crash isolation -------------------------- *)

let test_crash_isolation_under_stealing () =
  (* a high-probability capped fault on a wide pool with many small
     items: crashes land on whichever domain stole the item, and every
     slot must still come back Ok (attempts > cap) in order *)
  with_fault_spec "seed=11,parallel.worker=0.8x6" (fun () ->
      let xs = List.init 60 Fun.id in
      let outcomes =
        Pool.with_pool ~jobs:4 @@ fun pool ->
        Pool.map_result pool ~attempts:7 (fun x -> x * 3) xs
      in
      check bool "fault actually fired" true
        (Engine.Fault.fired "parallel.worker" > 0);
      check bool "all slots recovered in order" true
        (outcomes = List.map (fun x -> Ok (x * 3)) xs))

let test_permanent_failure_isolated_under_stealing () =
  let xs = List.init 40 Fun.id in
  let outcomes =
    Pool.with_pool ~jobs:4 @@ fun pool ->
    Pool.map_result pool ~attempts:2
      (fun x -> if x mod 10 = 3 then failwith "broken" else x)
      xs
  in
  List.iteri
    (fun i o ->
      match o with
      | Ok v -> check int (Printf.sprintf "slot %d" i) i v
      | Error (e : Engine.Parallel.error) ->
        check bool (Printf.sprintf "slot %d is a failing item" i) true
          (i mod 10 = 3);
        check int "attempts spent" 2 e.Engine.Parallel.attempts)
    outcomes;
  check int "exactly the failing items errored" 4
    (List.length
       (List.filter (function Error _ -> true | Ok _ -> false) outcomes))

(* ----------------------------- telemetry ----------------------------- *)

let test_pool_telemetry () =
  let spawned = int_of_float (Obs.Metrics.sum "pool.spawned") in
  let reused = int_of_float (Obs.Metrics.sum "pool.reused") in
  let items = int_of_float (Obs.Metrics.sum "pool.items") in
  Pool.with_pool ~jobs:3 @@ fun pool ->
  ignore (Pool.map pool succ (List.init 30 Fun.id));
  ignore (Pool.map pool succ (List.init 30 Fun.id));
  check int "two domains spawned, once" (spawned + 2)
    (int_of_float (Obs.Metrics.sum "pool.spawned"));
  check bool "both ops reused the resident domains" true
    (int_of_float (Obs.Metrics.sum "pool.reused") >= reused + 2);
  check bool "work items counted" true
    (int_of_float (Obs.Metrics.sum "pool.items") >= items + 60)

(* ------------------------- batch byte-identity ------------------------ *)

let test_batch_service_through_pool () =
  let inst = Check.Gen.instance (Util.Prng.create 2026) in
  let reqs = Check.Props.stream_of inst in
  let sequential = List.map Batch.Service.respond reqs in
  let memo = Engine.Memo.create ~shards:4 ~spill:false ~namespace:"test-pool" () in
  let batched, _ =
    Pool.with_pool ~jobs:4 @@ fun pool -> Batch.Service.run ~pool ~memo reqs
  in
  check bool "batch through the pool is byte-identical" true
    (batched = sequential)

let () =
  Alcotest.run "pool"
    [ ( "order",
        [ Alcotest.test_case "map preserves order across jobs x chunk" `Quick
            test_map_order_preserved;
          Alcotest.test_case "map_result preserves order" `Quick
            test_map_result_order_preserved;
          Alcotest.test_case "many ops reuse one pool" `Quick
            test_map_many_ops_one_pool;
          Alcotest.test_case "bad arguments rejected" `Quick
            test_bad_arguments_rejected ] );
      ( "futures",
        [ Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "await re-raises" `Quick test_await_reraises;
          Alcotest.test_case "jobs=1 submit runs inline" `Quick
            test_submit_inline_on_one_job;
          Alcotest.test_case "nested submit is deadlock-free" `Quick
            test_nested_submit ] );
      ( "shutdown",
        [ Alcotest.test_case "idempotent, then rejects work" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "with_pool shuts down on exception" `Quick
            test_with_pool_shuts_down_on_exception ] );
      ( "faults",
        [ Alcotest.test_case "capped crashes recovered under stealing" `Quick
            test_crash_isolation_under_stealing;
          Alcotest.test_case "permanent failures isolated under stealing"
            `Quick test_permanent_failure_isolated_under_stealing ] );
      ( "telemetry",
        [ Alcotest.test_case "spawned/reused/items counters" `Quick
            test_pool_telemetry ] );
      ( "batch",
        [ Alcotest.test_case "batch service byte-identity through pool"
            `Quick test_batch_service_through_pool ] ) ]

(* Timing floors: the wall-clock claims of the curve engine, the
   observability layer, the batch service, the resident daemon and the
   ISEGEN generator.  Each floor is enforced only where the host and
   the timings make it physics rather than scheduler noise (enough
   cores, a long enough measurement); otherwise it is printed as not
   enforced.  The answers on these same inputs are checked in
   `dune runtest` — this executable only compares clocks.  Every
   violated floor is reported, then the run exits 1.

   Run with `dune build @perf-gates`; curves go to a private temporary
   cache directory, removed afterwards. *)

let cores = Domain.recommended_domain_count ()
let violations = ref []
let timed = Experiments.Report.timed

let gate name ~enforced ~ok detail =
  let verdict =
    if not enforced then "not enforced"
    else if ok then "ok"
    else begin
      violations := name :: !violations;
      "VIOLATED"
    end
  in
  Printf.printf "%-40s %s  [%s]\n%!" name detail verdict

(* Cold curve generation: on the Chapter 3 task-set kernels a 2-job
   pool must be 1.5x faster than sequential, and the whole obs layer
   (registry + flight ring) may cost at most 5% of six sequential
   passes over every kernel — an input large enough to clear the
   floor's 0.5 s minimum with room to spare. *)
let curve_floors () =
  let module Curves = Experiments.Curves in
  let names =
    List.sort_uniq compare (List.concat_map Curves.taskset_ch3 [ 1; 2; 3; 4; 5; 6 ])
  in
  let cold ?(names = names) jobs =
    ignore (Engine.Cache.clear ());
    Curves.reset ();
    snd
      (timed (fun () ->
           if jobs <= 1 then Curves.warm names
           else
             Engine.Parallel.Pool.with_pool ~jobs (fun pool ->
                 Curves.warm ~pool names)))
  in
  let seq_s = cold 1 in
  let par_s = cold 2 in
  let speedup = seq_s /. Float.max 1e-9 par_s in
  gate "curves: 2-job cold speedup >= 1.5" ~enforced:(cores >= 2)
    ~ok:(speedup >= 1.5)
    (Printf.sprintf "%.2f s / %.2f s = %.2fx" seq_s par_s speedup);
  let every_kernel = List.map fst (Kernels.all ()) in
  let pass enabled =
    Obs.Metrics.set_enabled enabled;
    Obs.Flight.set_enabled enabled;
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.set_enabled true;
        Obs.Flight.set_enabled true)
      (fun () -> cold ~names:every_kernel 1)
  in
  (* off and on passes alternate, so a drift in host load falls on
     both sums alike *)
  let obs_off_s, obs_on_s =
    List.fold_left
      (fun (off, on) _ ->
        let off = off +. pass false in
        (off, on +. pass true))
      (0., 0.) [ 1; 2; 3; 4; 5; 6 ]
  in
  let overhead = (obs_on_s -. obs_off_s) /. Float.max 1e-9 obs_off_s in
  gate "obs: overhead <= 5%" ~enforced:(obs_off_s >= 0.5)
    ~ok:(overhead <= 0.05)
    (Printf.sprintf "%.2f s on, %.2f s off (%+.1f%%)" obs_on_s obs_off_s
       (100. *. overhead))

let fresh_memo () = Engine.Memo.create ~shards:8 ~spill:false ~namespace:"perf-gates" ()

let cold_batch ~jobs requests =
  snd
    (timed (fun () ->
         Engine.Parallel.Pool.with_pool ~jobs (fun pool ->
             Batch.Service.run ~pool ~memo:(fresh_memo ()) requests)))

(* The 200-request batch stream from a cold memo: widening the pool
   must not slow it down by more than 10%. *)
let batch_floors () =
  let requests = Test_helpers.op_stream ~prefix:"b" ~seed:100 ~instances:10 ~copies:4 in
  let t1 = cold_batch ~jobs:1 requests in
  let t2 = cold_batch ~jobs:2 requests in
  let t4 = cold_batch ~jobs:4 requests in
  gate "batch: 2 jobs <= 1.1 x 1 job" ~enforced:(cores >= 2)
    ~ok:(t2 <= t1 *. 1.1)
    (Printf.sprintf "%.3f s vs %.3f s" t2 t1);
  gate "batch: 4 jobs <= 1.1 x 2 jobs" ~enforced:(cores >= 4)
    ~ok:(t4 <= t2 *. 1.1)
    (Printf.sprintf "%.3f s vs %.3f s" t4 t2)

(* The 80-request stream: a daemon whose memo one pass warmed must
   answer it 1.2x faster than a cold one-shot batch. *)
let daemon_floor () =
  let requests = Test_helpers.op_stream ~prefix:"d" ~seed:500 ~instances:8 ~copies:2 in
  let cold_batch_s = cold_batch ~jobs:2 requests in
  let sock = Filename.temp_file "isecustom-perf-gates" ".sock" in
  Sys.remove sock;
  Engine.Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  let d = Daemon.Server.start ~unix_path:sock ~pool ~memo:(fresh_memo ()) () in
  Fun.protect ~finally:(fun () -> Daemon.Server.stop d) @@ fun () ->
  let replay () =
    let c = Daemon.Client.connect ~unix_path:sock () in
    Fun.protect
      ~finally:(fun () -> Daemon.Client.close c)
      (fun () ->
        List.iter
          (fun req ->
            match Daemon.Client.rpc c req with
            | Ok _ -> ()
            | Error msg -> failwith ("daemon: " ^ msg))
          requests)
  in
  replay ();
  let (), warm_s = timed replay in
  let speedup = cold_batch_s /. Float.max 1e-9 warm_s in
  gate "daemon: warm >= 1.2 x cold batch"
    ~enforced:(cores >= 2 && cold_batch_s >= 0.2)
    ~ok:(speedup >= 1.2)
    (Printf.sprintf "%.3f s / %.3f s = %.2fx" cold_batch_s warm_s speedup)

(* On each block that saturates the small exhaustive budget, ISEGEN
   must stay within 2x of the deep exhaustive enumeration's time.  Each
   side is timed over three runs, so that the deep enumeration clears
   the floor's 0.05 s minimum. *)
let generator_floor () =
  let module E = Ise.Enumerate in
  let three_runs f = snd (timed (fun () -> for _ = 1 to 3 do ignore (f ()) done)) in
  List.iter
    (fun (name, dfg) ->
      let _, saturation = E.connected_full ~budget:E.small_budget dfg in
      let deep_s = three_runs (fun () -> E.connected_full ~budget:E.default_budget dfg) in
      let isegen_s =
        three_runs (fun () ->
            Ise.Isegen.generate ~params:(Test_helpers.cap_breaking_params dfg) dfg)
      in
      let ratio = isegen_s /. Float.max 1e-9 deep_s in
      gate
        (Printf.sprintf "isegen %s: <= 2 x deep exhaustive" name)
        ~enforced:(saturation <> None && deep_s >= 0.05)
        ~ok:(ratio <= 2.0)
        (Printf.sprintf "%.3f s vs %.3f s = %.2fx" isegen_s deep_s ratio))
    (Test_helpers.cap_breaking_blocks ())

let () =
  Printf.printf "perf gates on %d core(s)\n%!" cores;
  let dir = Filename.temp_dir "isecustom-perf-gates" "" in
  Engine.Cache.set_dir dir;
  Fun.protect ~finally:(fun () -> Test_helpers.rm_rf dir) curve_floors;
  batch_floors ();
  daemon_floor ();
  generator_floor ();
  match !violations with
  | [] -> ()
  | vs ->
    Printf.printf "%d floor(s) violated: %s\n" (List.length vs)
      (String.concat "; " (List.rev vs));
    exit 1

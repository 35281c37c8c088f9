(* isecustom — command-line front end for the instruction-set
   customization toolchain.

   Subcommands:
     kernels                      list the modelled benchmark kernels
     curve <kernel>               configuration curve (identify + select)
     select <kernels...>          optimal inter-task selection (EDF/RMS)
     iterate <kernels...>         Chapter 5 iterative customization
     pareto <kernel>              exact / approximate workload-area fronts
     experiment [<id>]            run one experiment from the registry, or
                                  the whole evaluation in paper order
     stats <id>                   run an experiment and print its span tree,
                                  histogram percentiles and telemetry
                                  (--prometheus / --flight for machine form)
     cache show|clear             inspect / empty the persistent curve cache
     batch <requests.jsonl>       answer a JSONL stream of solver requests with
                                  structural dedup, budget-sweep sharing and
                                  sharded memo tables; --connect sends the
                                  stream to a resident daemon instead
     serve                        resident solver daemon: persistent JSONL
                                  connections over one warm memo and domain
                                  pool, admission control, graceful drain
     check [replay F | selftest | faults]
                                  property-based differential testing of the
                                  solver stack against brute-force oracles;
                                  `faults` exercises every fault-injection point

   Observability and resilience flags shared by the solver-running commands:
     --trace FILE       Chrome trace_event JSON (about:tracing / Perfetto)
     --log-level LEVEL  error | warn | info | debug   (default warn)
     --log-json FILE    JSONL log sink in addition to stderr
     --metrics-out FILE telemetry + histogram percentiles as JSON
     --deadline S       wall-clock budget per solver run (anytime degradation)
     --max-nodes N      deterministic fuel budget per solver run
     --fault-spec SPEC  seeded fault injection, e.g. seed=7,cache.write=0.1 *)

open Cmdliner

let fmt = Format.std_formatter

(* Flags shared by the curve-generating commands. *)

let generator_conv =
  let parse s =
    match Ise.Isegen.choice_of_string s with
    | Some c -> Ok c
    | None ->
      Error (`Msg (Printf.sprintf "unknown generator %S (expected %s)" s
                     (String.concat ", "
                        (List.map Ise.Isegen.choice_to_string
                           Ise.Isegen.all_choices))))
  in
  let print fmt c = Format.pp_print_string fmt (Ise.Isegen.choice_to_string c) in
  Arg.conv (parse, print)

let generator_arg =
  let doc =
    "Candidate generator: $(b,exhaustive) (capped breadth-first      enumeration, exact within its budget), $(b,isegen) (ISEGEN-style      iterative improvement, scales past the enumeration caps) or      $(b,auto) (exhaustive, switching to isegen when a cap saturates)."
  in
  Arg.(value
       & opt generator_conv Ise.Isegen.Exhaustive
       & info [ "generator" ] ~docv:"GEN" ~doc)

let hw_model_conv =
  let parse s =
    match Isa.Hw_model.backend_of_name s with
    | Some b -> Ok b
    | None ->
      Error (`Msg (Printf.sprintf "unknown hardware model %S (expected %s)" s
                     (String.concat ", "
                        (List.map (fun (b : Isa.Hw_model.backend) -> b.name)
                           Isa.Hw_model.backends))))
  in
  let print fmt (b : Isa.Hw_model.backend) = Format.pp_print_string fmt b.name in
  Arg.conv (parse, print)

let hw_model_arg =
  let doc =
    "Hardware cost backend for candidate evaluation: $(b,uniform) (the      thesis's synthesis tables) or $(b,riscv) (DSP multiplier,      per-register-port area, 100 MHz clock)."
  in
  Arg.(value
       & opt hw_model_conv Isa.Hw_model.uniform
       & info [ "hw-model" ] ~docv:"MODEL" ~doc)

let no_cache_arg =
  let doc = "Bypass the persistent curve cache (neither read nor write it)." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let stats_arg =
  let doc =
    "Dump solver telemetry (counters, timers and histogram percentiles) \
     after the run."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* Observability flags: parsed into a record by [obs_term]; [obs_finish]
   writes the requested artifacts once the command's work is done. *)

let trace_file_arg =
  let doc =
    "Record hierarchical spans and write them to $(docv) in Chrome \
     trace_event JSON, viewable in about:tracing or Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let log_level_arg =
  let doc = "Log verbosity: $(b,error), $(b,warn), $(b,info) or $(b,debug)." in
  Arg.(value & opt string "warn" & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_json_arg =
  let doc = "Also append log records to $(docv), one JSON object per line." in
  Arg.(value & opt (some string) None & info [ "log-json" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "After the run, write solver telemetry and histogram percentiles to \
     $(docv) as JSON."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* Resilience flags: a process-wide solver budget (--deadline /
   --max-nodes, see Engine.Guard) and seeded fault injection
   (--fault-spec, see Engine.Fault). *)

let deadline_arg =
  let doc =
    "Wall-clock budget in $(docv) seconds for each exponential solver \
     run; on expiry the solver stops and returns its best result so \
     far, reported as partial."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let max_nodes_arg =
  let doc =
    "Deterministic work budget (search nodes / fuel units) per solver \
     run.  Unlike $(b,--deadline), equal budgets reproduce bit-identical \
     partial results on any machine."
  in
  Arg.(value & opt (some int) None & info [ "max-nodes" ] ~docv:"N" ~doc)

let fault_spec_arg =
  let doc =
    "Enable seeded fault injection, e.g. \
     $(b,seed=7,cache.write=0.1,parallel.worker=1x2).  Also settable \
     via ISECUSTOM_FAULT_SPEC."
  in
  Arg.(value & opt (some string) None & info [ "fault-spec" ] ~docv:"SPEC" ~doc)

type obs = {
  trace_file : string option;
  metrics_file : string option;
  (* registry state when the command started; --metrics-out reports the
     delta against it, so module-init declares and earlier activity in
     the process never leak into a command's numbers *)
  baseline : Obs.Snapshot.t;
}

let obs_setup trace_file log_level log_json metrics_file deadline max_nodes
    fault_spec =
  (match Engine.Log.level_of_string log_level with
   | Ok l -> Engine.Log.set_level l
   | Error msg ->
     Format.eprintf "%s@." msg;
     exit 1);
  Engine.Log.set_json_file log_json;
  if trace_file <> None then Engine.Trace.set_enabled true;
  (match deadline with
   | Some d when d <= 0. ->
     Format.eprintf "--deadline must be positive@.";
     exit 1
   | _ -> ());
  (match max_nodes with
   | Some n when n <= 0 ->
     Format.eprintf "--max-nodes must be positive@.";
     exit 1
   | _ -> ());
  if deadline <> None || max_nodes <> None then
    Engine.Guard.set_default_spec
      { Engine.Guard.deadline_s = deadline; fuel = max_nodes };
  (match fault_spec with
   | None -> ()
   | Some s ->
     (match Engine.Fault.parse s with
      | Ok spec -> Engine.Fault.configure spec
      | Error msg ->
        Format.eprintf "--fault-spec: %s@." msg;
        exit 1));
  (* Every solver-running command flies recorded: if the run ends with
     a Warn+ event (guard exhaustion, injected fault, cache degrade) or
     an uncaught exception, the ring lands in _flight/ as JSONL. *)
  Obs.Flight.arm ();
  { trace_file; metrics_file; baseline = Obs.Snapshot.take () }

let obs_term =
  Term.(
    const obs_setup $ trace_file_arg $ log_level_arg $ log_json_arg
    $ metrics_out_arg $ deadline_arg $ max_nodes_arg $ fault_spec_arg)

(* Snapshot delta, not reset-then-read: epoch-safe even while pool
   workers are still reporting (see Obs.Snapshot).  --metrics-out and
   the --stats tables both report this command's delta. *)
let metrics_delta obs =
  Obs.Snapshot.delta ~before:obs.baseline ~after:(Obs.Snapshot.take ())

let metrics_json obs =
  let d = metrics_delta obs in
  Util.Json.to_string
    (Obj
       [ ("telemetry", Obs.Snapshot.telemetry_json d);
         ("histograms", Obs.Snapshot.histograms_json d) ])
  ^ "\n"

let obs_finish obs =
  (match obs.trace_file with
   | None -> ()
   | Some file ->
     Engine.Trace.write_chrome file;
     Engine.Log.info "trace written to %s" file);
  match obs.metrics_file with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (metrics_json obs));
    Engine.Log.info "metrics written to %s" file

let jobs_arg =
  let doc =
    "Create one persistent work-stealing pool of $(docv) domains for \
     the whole command and run every parallel phase (curve generation, \
     batch groups) on it (default: sequential, no pool).  Results are \
     bit-identical to a sequential run."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* The pool is created here, once per command, and the handle threaded
   down — lower layers take [?pool] and never read a jobs count
   themselves.  Shutdown is double-covered: the normal path unwinds
   through Fun.protect, and an [at_exit] hook catches commands that end
   in [exit] (which does not unwind).  Pool.shutdown is idempotent, so
   running both is fine. *)
let live_pools = Atomic.make ([] : Engine.Parallel.Pool.t list)

let pools_at_exit =
  lazy
    (at_exit (fun () ->
         List.iter Engine.Parallel.Pool.shutdown (Atomic.get live_pools)))

let with_jobs_pool jobs f =
  match jobs with
  | None -> f None
  | Some j ->
    Lazy.force pools_at_exit;
    let pool = Engine.Parallel.Pool.create ~jobs:j () in
    Atomic.set live_pools (pool :: Atomic.get live_pools);
    Fun.protect
      ~finally:(fun () -> Engine.Parallel.Pool.shutdown pool)
      (fun () -> f (Some pool))

let apply_no_cache no_cache = if no_cache then Engine.Cache.set_enabled false

let print_stats ?(out = fmt) obs stats =
  if stats then Obs.Snapshot.pp out (metrics_delta obs)

(* ------------------------------------------------------------------ *)

let kernels_cmd =
  let run () =
    Format.fprintf fmt "%-14s %-14s %-8s %-8s@." "kernel" "wcet" "max bb" "avg bb";
    List.iter
      (fun (name, cfg) ->
        Format.fprintf fmt "%-14s %-14d %-8d %-8.1f@." name (Ir.Cfg.wcet cfg)
          (Ir.Cfg.max_block_size cfg) (Ir.Cfg.avg_block_size cfg))
      (Kernels.all ());
    Format.pp_print_flush fmt ()
  in
  Cmd.v (Cmd.info "kernels" ~doc:"List the modelled benchmark kernels.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)

let kernel_arg =
  let doc = "Benchmark kernel name (see $(b,kernels))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

let kernel_list_arg =
  let doc = "Benchmark kernel names (see $(b,kernels))." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"KERNEL" ~doc)

let resolve name =
  match Kernels.find_opt name with
  | Some cfg -> cfg
  | None ->
    Format.eprintf "unknown kernel %s; try `isecustom kernels'@." name;
    exit 1

let curve_cmd =
  let run obs no_cache stats generator hw name =
    apply_no_cache no_cache;
    Experiments.Curves.set_generator generator;
    Experiments.Curves.set_hw hw;
    ignore (resolve name);
    let curve = Experiments.Curves.curve name in
    Format.fprintf fmt "%-16s %-14s %s@." "area (adders)" "cycles" "speedup";
    let base = float_of_int (Isa.Config.base_cycles curve) in
    Array.iter
      (fun (p : Isa.Config.point) ->
        Format.fprintf fmt "%-16.1f %-14d %.3fx@."
          (Isa.Hw_model.adders_of_units p.area)
          p.cycles
          (base /. float_of_int p.cycles))
      (Isa.Config.points curve);
    print_stats obs stats;
    obs_finish obs;
    Format.pp_print_flush fmt ()
  in
  Cmd.v
    (Cmd.info "curve"
       ~doc:"Generate a kernel's configuration curve (identification + selection).")
    Term.(
      const run $ obs_term $ no_cache_arg $ stats_arg $ generator_arg
      $ hw_model_arg $ kernel_arg)

(* ------------------------------------------------------------------ *)

let utilization_arg =
  let doc = "Target software-only utilization of the task set." in
  Arg.(value & opt float 1.1 & info [ "u"; "utilization" ] ~docv:"U" ~doc)

let budget_arg =
  let doc = "Area budget as a fraction of the summed maximum areas." in
  Arg.(value & opt float 0.5 & info [ "b"; "budget" ] ~docv:"FRACTION" ~doc)

let policy_arg =
  let doc = "Scheduling policy: edf or rms." in
  Arg.(value & opt (enum [ ("edf", `Edf); ("rms", `Rms) ]) `Edf
       & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let select_cmd =
  let run obs u budget_fraction policy generator names =
    Experiments.Curves.set_generator generator;
    let tasks = Experiments.Curves.tasks_of ~u names in
    let max_area = Experiments.Curves.max_area_of tasks in
    let budget =
      int_of_float (budget_fraction *. float_of_int max_area)
    in
    Format.fprintf fmt "task set: %s@." (String.concat ", " names);
    Format.fprintf fmt "software utilization %.3f; budget %.1f adders@."
      (Rt.Task.set_utilization tasks)
      (Isa.Hw_model.adders_of_units budget);
    (match policy with
     | `Edf ->
       let sel = Core.Edf_select.run ~budget tasks in
       Format.fprintf fmt "%a@." Core.Selection.pp sel;
       if sel.Core.Selection.utilization > 1. then
         Format.fprintf fmt "not EDF-schedulable at this budget@."
     | `Rms ->
       (match Core.Rms_select.run_guarded ~budget tasks with
        | Some sel, status ->
          Format.fprintf fmt "%a@." Core.Selection.pp sel;
          (match status with
           | Engine.Guard.Exact -> ()
           | s ->
             Format.fprintf fmt
               "(%s — best incumbent found, optimality not proven)@."
               (Engine.Guard.string_of_status s))
        | None, Engine.Guard.Exact ->
          Format.fprintf fmt "not RMS-schedulable at this budget@."
        | None, (Engine.Guard.Partial _ as s) ->
          Format.fprintf fmt
            "no feasible selection found before the budget ran out (%s)@."
            (Engine.Guard.string_of_status s)));
    obs_finish obs;
    Format.pp_print_flush fmt ()
  in
  Cmd.v
    (Cmd.info "select"
       ~doc:"Optimal inter-task custom-instruction selection (Chapter 3).")
    Term.(
      const run $ obs_term $ utilization_arg $ budget_arg $ policy_arg
      $ generator_arg $ kernel_list_arg)

(* ------------------------------------------------------------------ *)

let iterate_cmd =
  let run obs u generator names =
    let inputs =
      Iterative.Driver.tasks_of_kernels ~u
        (List.map (fun n -> (n, resolve n)) names)
    in
    let result = Iterative.Driver.run ~generator inputs in
    List.iter
      (fun (it : Iterative.Driver.iteration) ->
        Format.fprintf fmt "iteration %d: customized %-12s U=%.4f area=%.1f adders@."
          it.index it.task it.utilization
          (Isa.Hw_model.adders_of_units it.area))
      result.Iterative.Driver.iterations;
    Format.fprintf fmt "final: U=%.4f (%s), %d custom instructions, %.1f adders@."
      result.Iterative.Driver.utilization
      (if result.Iterative.Driver.schedulable then "schedulable" else "infeasible")
      result.Iterative.Driver.instruction_count
      (Isa.Hw_model.adders_of_units result.Iterative.Driver.total_area);
    obs_finish obs;
    Format.pp_print_flush fmt ()
  in
  Cmd.v
    (Cmd.info "iterate"
       ~doc:"Iterative top-down customization until the task set schedules \
             (Chapter 5).")
    Term.(const run $ obs_term $ utilization_arg $ generator_arg $ kernel_list_arg)

(* ------------------------------------------------------------------ *)

let eps_arg =
  let doc = "Approximation parameter epsilon; omit for the exact front." in
  Arg.(value & opt (some float) None & info [ "e"; "eps" ] ~docv:"EPS" ~doc)

let pareto_cmd =
  let run obs eps name =
    ignore (resolve name);
    let workload, front = Pareto.Stages.Intra.of_task ?eps (resolve name) in
    Format.fprintf fmt "%s: workload %d cycles, %d front points%s@." name workload
      (List.length front)
      (match eps with
       | Some e -> Printf.sprintf " (eps = %.2f)" e
       | None -> " (exact)");
    List.iter
      (fun (p : Util.Pareto_front.point) ->
        Format.fprintf fmt "  area %-8.1f -> %.0f cycles@."
          (Isa.Hw_model.adders_of_units p.cost)
          p.value)
      front;
    obs_finish obs;
    Format.pp_print_flush fmt ()
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:"Workload-area Pareto front of a kernel, exact or \
             epsilon-approximate (Chapter 4).")
    Term.(const run $ obs_term $ eps_arg $ kernel_arg)

(* ------------------------------------------------------------------ *)

let dot_cmd =
  let run name =
    let cfg = resolve name in
    let blocks = Ir.Cfg.blocks cfg in
    let big =
      List.fold_left
        (fun acc (b : Ir.Cfg.block) ->
          if Ir.Dfg.node_count b.Ir.Cfg.body > Ir.Dfg.node_count acc.Ir.Cfg.body
          then b
          else acc)
        (List.hd blocks) blocks
    in
    let cis = Iterative.Mlgp.cover_dfg big.Ir.Cfg.body in
    let highlight =
      List.mapi
        (fun i (ci : Isa.Custom_inst.t) ->
          (ci.Isa.Custom_inst.nodes, Printf.sprintf "CI%d (gain %d)" i (Isa.Custom_inst.gain ci)))
        cis
    in
    print_string (Ir.Dot.dfg ~highlight big.Ir.Cfg.body)
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Emit Graphviz for a kernel's largest block with its MLGP \
             custom instructions highlighted.")
    Term.(const run $ kernel_arg)

(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let id_arg =
    let doc =
      "Experiment id (e.g. f3.3); use --list to enumerate.  Without an id, \
       every experiment runs in paper order."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List available experiments.")
  in
  (* The whole evaluation goes through [run_sweep]: a crashing driver is
     reported in place and the rest of the paper still regenerates.
     Returns the ids of the failed experiments. *)
  let run_all pool =
    List.filter_map
      (fun ((e : Experiments.Registry.experiment), outcome) ->
        match outcome with
        | Ok (result : Experiments.Report.result) ->
          Experiments.Report.render fmt result;
          Format.fprintf fmt "[%s completed in %.1fs]@." e.id result.elapsed;
          None
        | Error msg ->
          Format.fprintf fmt "@.=== %s: %s ===@.[FAILED: %s]@." e.id e.title msg;
          Some e.id)
      (Experiments.Registry.run_sweep ?pool Experiments.Registry.all)
  in
  let run obs list jobs no_cache stats generator id =
    apply_no_cache no_cache;
    Experiments.Curves.set_generator generator;
    if list then
      List.iter
        (fun (e : Experiments.Registry.experiment) ->
          Format.fprintf fmt "%-8s %s@." e.id e.title)
        Experiments.Registry.all
    else
      match id with
      | None ->
        let failures = with_jobs_pool jobs run_all in
        if failures <> [] then
          Format.fprintf fmt "@.[%d experiment(s) failed: %s]@."
            (List.length failures) (String.concat ", " failures);
        print_stats obs stats;
        obs_finish obs;
        Format.pp_print_flush fmt ();
        if failures <> [] then exit 1
      | Some id ->
        (match Experiments.Registry.find id with
         | Some e ->
           let result =
             with_jobs_pool jobs (function
               | Some pool -> Experiments.Registry.run_parallel ~pool e
               | None -> e.run ())
           in
           Experiments.Report.render fmt result;
           print_stats obs stats;
           obs_finish obs
         | None ->
           Format.eprintf "unknown experiment %s@." id;
           exit 1);
        Format.pp_print_flush fmt ()
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Run one experiment from the evaluation registry, or all of \
             them in paper order.")
    Term.(
      const run $ obs_term $ list_arg $ jobs_arg $ no_cache_arg $ stats_arg
      $ generator_arg $ id_arg)

(* ------------------------------------------------------------------ *)

(* `stats <id>` — the profiling view of `experiment <id>`: tracing is
   forced on, and instead of the experiment's table the command reports
   where the solver effort went (span tree, per-event distributions,
   cumulative counters). *)
let profile_cmd =
  let id_arg =
    let doc = "Experiment id (e.g. f3.3); see $(b,experiment --list)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let prometheus_arg =
    let doc =
      "Instead of the human-readable tables, print the labeled metric \
       registry to standard output in Prometheus text exposition format \
       v0.0.4."
    in
    Arg.(value & flag & info [ "prometheus" ] ~doc)
  in
  let flight_arg =
    let doc =
      "After the run, dump the flight-recorder ring to standard output \
       as JSONL (one structured event per line, oldest first)."
    in
    Arg.(value & flag & info [ "flight" ] ~doc)
  in
  let run obs jobs no_cache prometheus flight id =
    apply_no_cache no_cache;
    match Experiments.Registry.find id with
    | None ->
      Format.eprintf "unknown experiment %s@." id;
      exit 1
    | Some e ->
      Engine.Trace.set_enabled true;
      let result =
        with_jobs_pool jobs (function
          | Some pool -> Experiments.Registry.run_parallel ~pool e
          | None -> e.run ())
      in
      if prometheus || flight then begin
        (* machine-readable one-shot views own stdout; the banner goes
           to stderr so the output stays parseable *)
        Format.eprintf "=== %s: %s (%.1fs) ===@." e.id e.title result.elapsed;
        if prometheus then print_string (Obs.Prometheus.render ());
        if flight then print_string (Obs.Flight.to_jsonl ())
      end
      else begin
        Format.fprintf fmt "=== %s: %s (%.1fs) ===@." e.id e.title
          result.elapsed;
        Format.fprintf fmt "@.--- span tree ---@.";
        Engine.Trace.pp_tree fmt ();
        print_stats obs true
      end;
      obs_finish obs;
      Format.pp_print_flush fmt ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run an experiment and print its span tree, histogram \
             percentiles and telemetry counters — or the raw registry \
             ($(b,--prometheus)) and flight recorder ($(b,--flight)).")
    Term.(
      const run $ obs_term $ jobs_arg $ no_cache_arg $ prometheus_arg
      $ flight_arg $ id_arg)

(* ------------------------------------------------------------------ *)

let cache_cmd =
  let action_arg =
    let doc = "$(b,show) lists the cached entries; $(b,clear) deletes them." in
    Arg.(required
         & pos 0 (some (enum [ ("show", `Show); ("clear", `Clear) ])) None
         & info [] ~docv:"ACTION" ~doc)
  in
  let run action =
    (match action with
     | `Show ->
       (match Engine.Cache.entries () with
        | [] -> Format.fprintf fmt "cache %s is empty@." (Engine.Cache.dir ())
        | entries ->
          Format.fprintf fmt "%-14s %-10s %s@." "namespace" "bytes" "key";
          List.iter
            (fun (e : Engine.Cache.entry) ->
              Format.fprintf fmt "%-14s %-10d %s@." e.namespace e.size e.key)
            entries)
     | `Clear ->
       let n = Engine.Cache.clear () in
       Format.fprintf fmt "removed %d entr%s from %s@." n
         (if n = 1 then "y" else "ies")
         (Engine.Cache.dir ()));
    Format.pp_print_flush fmt ()
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Inspect or empty the persistent curve cache (_cache/, \
             overridable with ISECUSTOM_CACHE_DIR).")
    Term.(const run $ action_arg)

(* ------------------------------------------------------------------ *)

let batch_cmd =
  let file_arg =
    let doc =
      "Request stream, one JSON object per line \
       ($(b,{\"id\": ..., \"op\": ..., \"instance\": ...})); $(b,-) reads \
       standard input."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REQUESTS" ~doc)
  in
  let shards_arg =
    let doc = "Shards of the in-memory memo table." in
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Write response lines to $(docv) instead of standard output." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let sequential_arg =
    let doc =
      "Answer requests one at a time (the reference path): no dedup, no \
       sweep grouping, no memo.  Byte-identical to the batched answers — \
       that is the service's central invariant."
    in
    Arg.(value & flag & info [ "sequential" ] ~doc)
  in
  let read_lines ic =
    let rec go acc =
      match input_line ic with
      | line -> go (if String.trim line = "" then acc else line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  let connect_arg =
    let doc =
      "Send the requests to a resident daemon (see $(b,serve)) instead of \
       solving in-process: $(docv) is the daemon's Unix socket path, or a \
       bare integer for a loopback TCP port.  Answers are byte-identical \
       to the in-process paths; parse errors are still reported locally."
    in
    Arg.(value
         & opt (some string) None
         & info [ "connect" ] ~docv:"PATH|PORT" ~doc)
  in
  let run obs no_cache stats_flag jobs shards out_file sequential connect file =
    apply_no_cache no_cache;
    let lines =
      if file = "-" then read_lines stdin
      else if not (Sys.file_exists file) then begin
        Format.eprintf "no such file: %s@." file;
        exit 2
      end
      else begin
        let ic = open_in file in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_lines ic)
      end
    in
    let indexed = List.mapi (fun i line -> (i, Batch.Protocol.parse_request line)) lines in
    let oks = List.filter_map (function i, Ok r -> Some (i, r) | _ -> None) indexed in
    let answered, stats =
      match connect with
      | Some target ->
        (* one persistent connection, one rpc per request in input
           order — the daemon owns the pool/memo, so --jobs/--shards
           do not apply here *)
        let client =
          try
            match int_of_string_opt target with
            | Some port -> Daemon.Client.connect ~port ()
            | None -> Daemon.Client.connect ~unix_path:target ()
          with Unix.Unix_error (e, _, _) ->
            Format.eprintf "batch --connect %s: %s@." target
              (Unix.error_message e);
            exit 3
        in
        Fun.protect
          ~finally:(fun () -> Daemon.Client.close client)
          (fun () ->
            ( List.map
                (fun (i, r) ->
                  match Daemon.Client.rpc client r with
                  | Ok line -> (i, line)
                  | Error msg ->
                    Format.eprintf "batch --connect: %s@." msg;
                    exit 3)
                oks,
              None ))
      | None ->
        (* the at_exit hook inside with_jobs_pool covers the [exit]
           calls below, which do not unwind Fun.protect *)
        with_jobs_pool jobs (fun pool ->
            if sequential then
              (List.map (fun (i, r) -> (i, Batch.Service.respond r)) oks, None)
            else begin
              let memo = Engine.Memo.create ~shards ~namespace:"batch" () in
              let out, stats = Batch.Service.run ?pool ~memo (List.map snd oks) in
              (List.map2 (fun (i, _) line -> (i, line)) oks out, Some stats)
            end)
    in
    let responses =
      List.map
        (function
          | i, Ok _ -> List.assoc i answered
          | i, Error msg ->
            Util.Json.(
              to_string
                (Obj
                   [ ("line", Num (float_of_int (i + 1))); ("error", Str msg) ])))
        indexed
    in
    let emit oc = List.iter (fun l -> output_string oc l; output_char oc '\n') responses in
    (match out_file with
     | None -> emit stdout
     | Some f ->
       let oc = open_out f in
       Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> emit oc));
    Option.iter (fun s -> Format.eprintf "%a@." Batch.Service.pp_stats s) stats;
    (* responses own stdout, so the telemetry dump goes to stderr here *)
    print_stats ~out:Format.err_formatter obs stats_flag;
    obs_finish obs;
    let errors = List.length indexed - List.length oks in
    if errors > 0 then begin
      Format.eprintf "%d request line%s could not be parsed@." errors
        (if errors = 1 then "" else "s");
      exit 1
    end;
    exit 0
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Answer a JSONL stream of solver requests as one batch: \
             canonicalize and hash every request, dedup exact duplicates, \
             share one DP across each budget sweep, run groups on the \
             domain pool against sharded memo tables spilling to the \
             persistent cache.")
    Term.(
      const run $ obs_term $ no_cache_arg $ stats_arg $ jobs_arg $ shards_arg
      $ out_arg $ sequential_arg $ connect_arg $ file_arg)

(* ------------------------------------------------------------------ *)

(* `serve` — the resident solver daemon: a long-lived Batch.Protocol
   JSONL server over one shared memo and one shared pool, with the
   /metrics, /healthz and /flight surface (Obs.Serve) riding alongside
   on --metrics-port / --metrics-unix.  SIGTERM
   and SIGINT trigger a graceful drain: stop accepting, flip /healthz
   to 503, finish in-flight requests, then exit 0. *)
let serve_cmd =
  let port_arg =
    let doc =
      "Accept solver connections on 127.0.0.1:$(docv); 0 binds an \
       ephemeral port (printed on startup)."
    in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let unix_arg =
    let doc =
      "Accept solver connections on a Unix-domain socket at $(docv) \
       (removed on exit)."
    in
    Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH" ~doc)
  in
  let metrics_port_arg =
    let doc = "Serve /metrics, /healthz and /flight on 127.0.0.1:$(docv)." in
    Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT" ~doc)
  in
  let metrics_unix_arg =
    let doc = "Serve /metrics, /healthz and /flight on a Unix socket at $(docv)." in
    Arg.(value & opt (some string) None
         & info [ "metrics-unix" ] ~docv:"PATH" ~doc)
  in
  let shards_arg =
    let doc = "Shards of the shared in-memory memo table." in
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Admission bound: at most $(docv) requests in flight across all \
       connections; beyond it requests are shed with an \
       $(b,overloaded) response."
    in
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let max_request_bytes_arg =
    let doc =
      "Cap one request line at $(docv) bytes; a longer line is answered \
       with an $(b,oversized) error and the connection closed."
    in
    Arg.(value & opt int (1024 * 1024)
         & info [ "max-request-bytes" ] ~docv:"BYTES" ~doc)
  in
  let idle_timeout_arg =
    let doc =
      "Close a connection silent for $(docv) seconds; 0 disables the \
       idle reaper."
    in
    Arg.(value & opt float 600. & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let line_timeout_arg =
    let doc =
      "Close a connection that takes longer than $(docv) seconds to \
       finish one request line (slow-loris guard); 0 disables it."
    in
    Arg.(value & opt float 60. & info [ "line-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let class_fuel_arg =
    let doc =
      "Per-class fuel budget $(b,OP=N) (repeatable), e.g. \
       $(b,--class-fuel pareto_exact=200000).  OP is a protocol op; \
       unlisted ops keep the process default budget."
    in
    Arg.(value & opt_all string [] & info [ "class-fuel" ] ~docv:"OP=N" ~doc)
  in
  let class_deadline_arg =
    let doc =
      "Per-class wall-clock budget $(b,OP=SECONDS) (repeatable), e.g. \
       $(b,--class-deadline curve=0.5)."
    in
    Arg.(value & opt_all string [] & info [ "class-deadline" ] ~docv:"OP=S" ~doc)
  in
  let parse_class_flag ~what ~parse_v flag =
    match String.index_opt flag '=' with
    | None ->
      Format.eprintf "--class-%s: expected OP=%s, got %s@." what
        (String.uppercase_ascii what) flag;
      exit 1
    | Some i ->
      let opn = String.sub flag 0 i in
      let v = String.sub flag (i + 1) (String.length flag - i - 1) in
      (match Batch.Protocol.op_of_name opn with
       | None ->
         Format.eprintf "--class-%s: unknown op %s@." what opn;
         exit 1
       | Some op ->
         (match parse_v v with
          | Some v -> (op, v)
          | None ->
            Format.eprintf "--class-%s: bad value %s@." what v;
            exit 1))
  in
  let classes_of fuels deadlines =
    let fuels =
      List.map
        (parse_class_flag ~what:"fuel" ~parse_v:(fun v ->
             match int_of_string_opt v with
             | Some n when n > 0 -> Some n
             | _ -> None))
        fuels
    in
    let deadlines =
      List.map
        (parse_class_flag ~what:"deadline" ~parse_v:(fun v ->
             match float_of_string_opt v with
             | Some s when s > 0. -> Some s
             | _ -> None))
        deadlines
    in
    let ops =
      List.sort_uniq compare (List.map fst fuels @ List.map fst deadlines)
    in
    List.map
      (fun op ->
        let base = Engine.Guard.default_spec () in
        ( op,
          { Engine.Guard.fuel =
              (match List.assoc_opt op fuels with
               | Some _ as f -> f
               | None -> base.Engine.Guard.fuel);
            deadline_s =
              (match List.assoc_opt op deadlines with
               | Some _ as d -> d
               | None -> base.Engine.Guard.deadline_s) } ))
      ops
  in
  let run obs no_cache jobs shards max_inflight max_request_bytes idle_timeout
      line_timeout port unix_path metrics_port metrics_unix class_fuels
      class_deadlines =
    apply_no_cache no_cache;
    if port = None && unix_path = None then begin
      Format.eprintf "serve: --port and/or --unix is required@.";
      exit 1
    end;
    if max_inflight < 1 then begin
      Format.eprintf "serve: --max-inflight must be >= 1@.";
      exit 1
    end;
    if max_request_bytes < 1 then begin
      Format.eprintf "serve: --max-request-bytes must be >= 1@.";
      exit 1
    end;
    if idle_timeout < 0. || line_timeout < 0. then begin
      Format.eprintf "serve: timeouts must be >= 0 (0 disables)@.";
      exit 1
    end;
    let opt_timeout s = if s = 0. then None else Some s in
    let classes = classes_of class_fuels class_deadlines in
    let memo = Engine.Memo.create ~shards ~namespace:"daemon" () in
    let stop_requested = Atomic.make false in
    let on_signal _ = Atomic.set stop_requested true in
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle on_signal));
    ignore (Sys.signal Sys.sigint (Sys.Signal_handle on_signal));
    with_jobs_pool jobs (fun pool ->
        let daemon =
          Daemon.Server.start ?host:None ?port ?unix_path ~max_inflight
            ~classes ?pool ~memo ~max_request_bytes
            ~idle_timeout_s:(opt_timeout idle_timeout)
            ~line_timeout_s:(opt_timeout line_timeout) ()
        in
        let metrics_srv =
          if metrics_port = None && metrics_unix = None then None
          else
            Some
              (Obs.Serve.start ?port:metrics_port ?unix_path:metrics_unix
                 ~healthz:(fun () -> Daemon.Server.healthy daemon)
                 ())
        in
        (match Daemon.Server.port daemon with
         | Some p -> Format.eprintf "serve: solver on 127.0.0.1:%d@." p
         | None -> ());
        Option.iter
          (fun p -> Format.eprintf "serve: solver on unix socket %s@." p)
          unix_path;
        (match Option.bind metrics_srv Obs.Serve.port with
         | Some p ->
           Format.eprintf
             "serve: /metrics /healthz /flight on http://127.0.0.1:%d@." p
         | None -> ());
        Option.iter
          (fun p -> Format.eprintf "serve: metrics on unix socket %s@." p)
          metrics_unix;
        while not (Atomic.get stop_requested) do
          Unix.sleepf 0.05
        done;
        Format.eprintf "serve: draining...@.";
        Daemon.Server.stop daemon;
        Option.iter Obs.Serve.stop metrics_srv;
        Format.eprintf "serve: drained, %d request(s) served@."
          (Daemon.Server.served daemon));
    obs_finish obs;
    exit 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident solver daemon: a persistent \
             $(b,Batch.Protocol) JSONL server (Unix socket and/or \
             loopback TCP) answering requests on a shared domain pool \
             against one warm memo, with admission control \
             ($(b,--max-inflight)), per-class budgets and a Prometheus \
             scrape surface.  SIGTERM/SIGINT drain gracefully.")
    Term.(
      const run $ obs_term $ no_cache_arg $ jobs_arg $ shards_arg
      $ max_inflight_arg $ max_request_bytes_arg $ idle_timeout_arg
      $ line_timeout_arg $ port_arg $ unix_arg $ metrics_port_arg
      $ metrics_unix_arg $ class_fuel_arg $ class_deadline_arg)

(* ------------------------------------------------------------------ *)

let check_cmd =
  let seed_arg =
    let doc = "Seed for the deterministic generators; equal seeds replay \
               identical instances." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let check_budget_arg =
    let doc = "Random cases to run per property." in
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let suite_arg =
    let doc =
      "Restrict to one suite (repeatable): select, sched, pareto, curve, \
       engine, parallel, isegen or batch."
    in
    Arg.(value & opt_all string [] & info [ "suite" ] ~docv:"SUITE" ~doc)
  in
  let repro_dir_arg =
    let doc = "Directory failure repro files are written to." in
    Arg.(value & opt string "." & info [ "repro-dir" ] ~docv:"DIR" ~doc)
  in
  let action_arg =
    let doc =
      "Optional action: $(b,replay) $(i,FILE) re-runs a recorded \
       counterexample; $(b,selftest) injects an off-by-one solver bug and \
       verifies the harness catches, shrinks and persists it; $(b,faults) \
       fires every fault-injection point and verifies each is survived."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"ACTION" ~doc)
  in
  let run obs seed budget suites repro_dir action =
    (* the batch properties live above lib/check in the library graph,
       so the composition happens here *)
    let all_props = Check.Prop.all @ Check.Props.all in
    let all_suites = Check.Prop.suites @ [ "batch" ] in
    let unknown = List.filter (fun s -> not (List.mem s all_suites)) suites in
    if unknown <> [] then begin
      Format.eprintf "unknown suite%s %s; available: %s@."
        (if List.length unknown = 1 then "" else "s")
        (String.concat ", " unknown)
        (String.concat ", " all_suites);
      exit 1
    end;
    let props =
      if suites = [] then all_props
      else List.filter (fun (p : Check.Prop.t) -> List.mem p.suite suites) all_props
    in
    let config = { Check.Runner.seed; budget; suites; repro_dir } in
    let status =
      match action with
      | [] ->
        let summary = Check.Runner.run ~fmt ~props config in
        if Check.Runner.ok summary then 0 else 1
      | [ "replay"; file ] ->
        (match Check.Runner.replay ~fmt ~props:all_props file with
         | Ok true -> 0
         | Ok false -> 1
         | Error msg ->
           Format.eprintf "%s@." msg;
           2)
      | [ "selftest" ] ->
        (match Check.Runner.selftest ~fmt ~seed ~repro_dir () with
         | Ok msg ->
           Format.fprintf fmt "self-test ok: %s@." msg;
           0
         | Error msg ->
           Format.eprintf "self-test FAILED: %s@." msg;
           1)
      | [ "faults" ] ->
        (match Check.Runner.fault_selftest ~fmt () with
         | Ok msg ->
           Format.fprintf fmt "fault self-test ok: %s@." msg;
           0
         | Error msg ->
           Format.eprintf "fault self-test FAILED: %s@." msg;
           1)
      | _ ->
        Format.eprintf
          "usage: isecustom check [OPTS] [replay FILE | selftest | faults]@.";
        exit 2
    in
    obs_finish obs;
    Format.pp_print_flush fmt ();
    exit status
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Property-based differential testing: random workloads, \
             brute-force oracles, greedy shrinking, replayable repro files.")
    Term.(
      const run $ obs_term $ seed_arg $ check_budget_arg $ suite_arg
      $ repro_dir_arg $ action_arg)

let () =
  let info =
    Cmd.info "isecustom" ~version:"1.0.0"
      ~doc:"Instruction-set customization for real-time embedded systems."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ kernels_cmd; curve_cmd; select_cmd; iterate_cmd; pareto_cmd;
            dot_cmd; experiment_cmd; profile_cmd; cache_cmd;
            batch_cmd; serve_cmd; check_cmd ]))

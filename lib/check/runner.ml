type config = {
  seed : int;
  budget : int;
  suites : string list;
  repro_dir : string;
}

let default = { seed = 42; budget = 200; suites = []; repro_dir = "." }

type failure = {
  prop : string;
  suite : string;
  case : int;
  message : string;
  shrunk : Batch.Instance.t;
  shrink_steps : int;
  repro_file : string option;
}

type summary = {
  cases : int;
  passed : int;
  skipped : int;
  failures : failure list;
}

let ok s = s.failures = []

let null_fmt =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* Independent stream per property: mixing the name into the seed keeps
   one property's draws stable when others are added or filtered out. *)
let prng_for ~seed (p : Prop.t) =
  Util.Prng.create (seed lxor (Hashtbl.hash p.Prop.name * 0x1000193))

(* A property that raises fails on that instance, with the exception's
   text as its message, so the run shrinks it, writes its repro and
   goes on to the next property. *)
let run_case (p : Prop.t) inst =
  match p.Prop.run inst with
  | outcome -> outcome
  | exception e -> Prop.Fail ("raised " ^ Printexc.to_string e)

let still_fails (p : Prop.t) inst =
  match run_case p inst with
  | Prop.Fail _ -> true
  | Prop.Pass | Prop.Skip _ -> false

(* mkdir -p: the repro directory named on the command line need not
   exist yet *)
let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_repro ~config ~seed (p : Prop.t) shrunk =
  let file =
    Filename.concat config.repro_dir
      (Printf.sprintf "repro-%s-%d.json" p.Prop.name seed)
  in
  match
    ensure_dir config.repro_dir;
    Repro.write ~file ~prop:p.Prop.name ~seed shrunk
  with
  | () -> Some file
  | exception (Sys_error _ | Unix.Unix_error _) -> None

let run_property ~fmt ~config (p : Prop.t) =
  Engine.Trace.with_span "check.property" ~attrs:[ ("prop", p.Prop.name) ]
  @@ fun () ->
  let prng = prng_for ~seed:config.seed p in
  let passed = ref 0 and skipped = ref 0 in
  let failure = ref None in
  let case = ref 0 in
  while !failure = None && !case < config.budget do
    let inst = Gen.instance (Util.Prng.split prng) in
    Obs.Metrics.inc ~labels:[ ("suite", p.Prop.suite) ] "check.cases";
    (match run_case p inst with
     | Prop.Pass -> incr passed
     | Prop.Skip _ -> incr skipped
     | Prop.Fail message ->
       Obs.Metrics.inc ~labels:[ ("suite", p.Prop.suite) ] "check.failures";
       Engine.Log.err "check: %s/%s failed at case %d: %s" p.Prop.suite
         p.Prop.name !case message;
       let shrunk, shrink_steps =
         Shrink.shrink ~still_fails:(still_fails p) inst
       in
       let message =
         match run_case p shrunk with
         | Prop.Fail m -> m
         | Prop.Pass | Prop.Skip _ -> message
       in
       let repro_file = write_repro ~config ~seed:config.seed p shrunk in
       (match repro_file with
        | Some file -> Engine.Log.err "check: repro written to %s" file
        | None ->
          Engine.Log.warn "check: could not write a repro file under %s"
            config.repro_dir);
       failure :=
         Some
           { prop = p.Prop.name;
             suite = p.Prop.suite;
             case = !case;
             message;
             shrunk;
             shrink_steps;
             repro_file });
    incr case
  done;
  (match !failure with
   | None ->
     Format.fprintf fmt "  %-34s ok   (%d cases, %d skipped)@." p.Prop.name
       !passed !skipped
   | Some f ->
     Format.fprintf fmt "  %-34s FAIL at case %d: %s@." p.Prop.name f.case
       f.message;
     Format.fprintf fmt "    shrunk %d step%s to size %d%s@." f.shrink_steps
       (if f.shrink_steps = 1 then "" else "s")
       (Batch.Instance.size f.shrunk)
       (match f.repro_file with
        | Some file -> Printf.sprintf "; replay with `check replay %s'" file
        | None -> ""));
  (!case, !passed, !skipped, !failure)

let run ?(fmt = null_fmt) ?props config =
  Engine.Trace.with_span "check.run" @@ fun () ->
  let props =
    match props with Some ps -> ps | None -> Prop.in_suites config.suites
  in
  let by_suite =
    List.fold_left
      (fun acc (p : Prop.t) ->
        if List.mem_assoc p.Prop.suite acc then acc
        else acc @ [ (p.Prop.suite, List.filter (fun (q : Prop.t) -> q.Prop.suite = p.Prop.suite) props) ])
      [] props
  in
  let totals = ref (0, 0, 0) and failures = ref [] in
  List.iter
    (fun (suite, ps) ->
      Format.fprintf fmt "suite %s:@." suite;
      List.iter
        (fun p ->
          let cases, passed, skipped, failure = run_property ~fmt ~config p in
          let c, pa, sk = !totals in
          totals := (c + cases, pa + passed, sk + skipped);
          match failure with
          | Some f -> failures := f :: !failures
          | None -> ())
        ps)
    by_suite;
  let cases, passed, skipped = !totals in
  let summary = { cases; passed; skipped; failures = List.rev !failures } in
  Format.fprintf fmt "%d cases: %d passed, %d skipped, %d failure%s@." cases
    passed skipped
    (List.length summary.failures)
    (if List.length summary.failures = 1 then "" else "s");
  summary

(* An off-by-one in the DP's area budget: the classic bug class the
   differential suite exists to catch.  Dropping one deci-adder changes
   the optimum exactly when the true optimum needs the full budget. *)
let broken_edf ~budget tasks = Core.Edf_select.run ~budget:(max 0 (budget - 1)) tasks

let selftest_prop = Prop.edf_against ~name:"selftest_edf_off_by_one" broken_edf

let replay ?(fmt = null_fmt) ?(props = Prop.all) file =
  match Repro.read file with
  | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
  | Ok { Repro.prop; seed; instance } ->
    (* the self-test writes repro files too, so its property replays
       whatever the caller's set *)
    let known = props @ [ selftest_prop ] in
    (match List.find_opt (fun (p : Prop.t) -> p.Prop.name = prop) known with
     | None -> Error (Printf.sprintf "%s: unknown property %s" file prop)
     | Some p ->
       Format.fprintf fmt "replaying %s (recorded from seed %d):@.%a@." prop
         seed Batch.Instance.pp instance;
       (match run_case p instance with
        | Prop.Pass ->
          Format.fprintf fmt "property now passes@.";
          Ok true
        | Prop.Skip reason ->
          Format.fprintf fmt "instance out of domain (%s)@." reason;
          Ok true
        | Prop.Fail message ->
          Format.fprintf fmt "failure reproduces: %s@." message;
          Ok false))

(* Drive every wired fault-injection point with probability 1 and prove
   the surrounding resilience code survives it: a selftest for the
   failure paths themselves, complementing [selftest] below which
   validates the bug-finding side of the harness. *)
exception Stage_failed of string

let fault_selftest ?(fmt = null_fmt) () =
  let check cond msg = if not cond then raise (Stage_failed msg) in
  let point p ?(cap = 1) () =
    Engine.Fault.configure
      { Engine.Fault.seed = 42;
        points = [ (p, { Engine.Fault.prob = 1.; cap = Some cap }) ] }
  in
  let counter name = int_of_float (Obs.Metrics.sum name) in
  let injected_since before p =
    check
      (counter "fault.injected" > before)
      (p ^ ": fault.injected telemetry did not increase");
    check (Engine.Fault.fired p >= 1) (p ^ ": the point never fired")
  in
  let ns = "faultcheck" in
  let value = [ 3; 1; 4; 1; 5 ] in
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "isecustom-faults-%d" (Unix.getpid ()))
  in
  let saved_dir = Engine.Cache.dir () in
  let saved_enabled = Engine.Cache.enabled () in
  (* the injected failures rightly produce cache warnings; keep them off
     stderr — the selftest's verdict is the signal *)
  let saved_level = Engine.Log.level () in
  Engine.Log.set_level Engine.Log.Error;
  Fun.protect
    ~finally:(fun () ->
      Engine.Fault.disable ();
      Engine.Log.set_level saved_level;
      ignore (Engine.Cache.clear ());
      (try Unix.rmdir tmp with Unix.Unix_error _ | Sys_error _ -> ());
      Engine.Cache.set_dir saved_dir;
      Engine.Cache.set_enabled saved_enabled)
    (fun () ->
      Engine.Cache.set_dir tmp;
      Engine.Cache.set_enabled true;
      let stages =
        [ ( "cache.write",
            fun () ->
              let before = counter "fault.injected" in
              let failed_before = counter "cache.write_failed" in
              point "cache.write" ();
              Engine.Cache.store ~namespace:ns ~key:"w" value;
              injected_since before "cache.write";
              check
                (counter "cache.write_failed" = failed_before + 1)
                "cache.write: write_failed counter did not increase";
              (* the cap is spent: the retry persists and reads back *)
              Engine.Cache.store ~namespace:ns ~key:"w" value;
              check
                (Engine.Cache.find ~namespace:ns ~key:"w" () = Some value)
                "cache.write: re-store after the fault does not read back" );
          ( "cache.truncate",
            fun () ->
              let before = counter "fault.injected" in
              let corrupt_before = counter "cache.corrupt" in
              point "cache.truncate" ();
              Engine.Cache.store ~namespace:ns ~key:"t" value;
              injected_since before "cache.truncate";
              check
                (Engine.Cache.find ~namespace:ns ~key:"t" () = None)
                "cache.truncate: torn entry still reads as a hit";
              check
                (counter "cache.corrupt" > corrupt_before)
                "cache.truncate: torn entry not counted as corruption";
              Engine.Cache.store ~namespace:ns ~key:"t" value;
              check
                (Engine.Cache.find ~namespace:ns ~key:"t" () = Some value)
                "cache.truncate: recomputed entry does not read back" );
          ( "cache.read",
            fun () ->
              Engine.Fault.disable ();
              Engine.Cache.store ~namespace:ns ~key:"r" value;
              let before = counter "fault.injected" in
              point "cache.read" ();
              check
                (Engine.Cache.find ~namespace:ns ~key:"r" () = None)
                "cache.read: injected read error still reads as a hit";
              injected_since before "cache.read";
              (* intact on disk: once the cap is spent the entry is back *)
              check
                (Engine.Cache.find ~namespace:ns ~key:"r" () = Some value)
                "cache.read: entry lost after a transient read fault" );
          ( "parallel.worker",
            fun () ->
              let before = counter "fault.injected" in
              let recovered_before = counter "parallel.recovered" in
              point "parallel.worker" ();
              let outcomes =
                List.map
                  (Engine.Parallel.Pool.isolate ~attempts:2 (fun x -> x * x))
                  [ 1; 2; 3 ]
              in
              injected_since before "parallel.worker";
              check
                (outcomes = [ Ok 1; Ok 4; Ok 9 ])
                "parallel.worker: transient crash not retried to success";
              check
                (counter "parallel.recovered" > recovered_before)
                "parallel.worker: recovery not counted";
              (* a permanent failure is isolated to its slot *)
              Engine.Fault.disable ();
              let failed_before = counter "parallel.item_failed" in
              let outcomes =
                List.map
                  (Engine.Parallel.Pool.isolate ~attempts:2 (fun x ->
                       if x = 2 then failwith "permanent" else x * x))
                  [ 1; 2; 3 ]
              in
              (match outcomes with
               | [ Ok 1; Error _; Ok 9 ] -> ()
               | _ ->
                 raise
                   (Stage_failed
                      "parallel.worker: permanent failure not isolated to \
                       its item"));
              check
                (counter "parallel.item_failed" > failed_before)
                "parallel.worker: permanent failure not counted" );
          ( "guard.exhaust",
            fun () ->
              let before = counter "fault.injected" in
              let exhausted_before = counter "guard.exhausted" in
              point "guard.exhaust" ();
              let g = Engine.Guard.create ~fuel:1_000 () in
              check
                (not (Engine.Guard.tick g))
                "guard.exhaust: tick survived a forced exhaustion";
              injected_since before "guard.exhaust";
              check
                (Engine.Guard.status g
                 = Engine.Guard.Partial Engine.Guard.Injected)
                "guard.exhaust: status is not Partial Injected";
              check
                (counter "guard.exhausted" > exhausted_before)
                "guard.exhaust: exhaustion not counted" ) ]
      in
      match
        List.iter
          (fun (name, stage) ->
            stage ();
            Engine.Fault.disable ();
            Format.fprintf fmt "  %-18s survived@." name)
          stages
      with
      | () ->
        Ok
          (Printf.sprintf
             "all %d injection points fired and were survived"
             (List.length stages))
      | exception Stage_failed msg -> Error msg)

let selftest ?(fmt = null_fmt) ~seed ~repro_dir () =
  let config = { default with seed; budget = 2000; repro_dir } in
  Format.fprintf fmt "self-test: EDF DP with an off-by-one budget injected@.";
  let summary = run ~fmt ~props:[ selftest_prop ] config in
  match summary.failures with
  | [] ->
    Error
      (Printf.sprintf
         "injected off-by-one survived %d random cases — the harness is blind"
         summary.cases)
  | f :: _ ->
    (match f.repro_file with
     | None -> Error "bug caught but no repro file could be written"
     | Some file ->
       (match replay ~fmt file with
        | Ok false ->
          Ok
            (Printf.sprintf
               "injected bug caught at case %d, shrunk %d steps to size %d, \
                repro %s replays the failure"
               f.case f.shrink_steps (Batch.Instance.size f.shrunk) file)
        | Ok true -> Error "shrunk repro no longer fails on replay"
        | Error msg -> Error msg))

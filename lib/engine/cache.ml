let format_version = 1
let magic = "ISECACHE"

(* Families declared up front so /metrics exposes them (with help
   text) before the first hit or miss; cells carry a [namespace]
   label, and unlabeled [Obs.Metrics.sum] reads total across them. *)
let () =
  Obs.Metrics.declare ~help:"Persistent cache hits by namespace"
    Obs.Metrics.Counter "cache.hits";
  Obs.Metrics.declare ~help:"Persistent cache misses by namespace"
    Obs.Metrics.Counter "cache.misses";
  Obs.Metrics.declare
    ~help:"Writes degraded to memory-only after a persistence failure"
    Obs.Metrics.Counter "cache.write_failed";
  Obs.Metrics.declare ~help:"Corrupt cache entries discarded on read"
    Obs.Metrics.Counter "cache.corrupt";
  Obs.Metrics.declare
    ~help:"Orphaned temp files reaped (writers killed mid-write)"
    Obs.Metrics.Counter "cache.tmp_swept";
  Obs.Metrics.declare
    ~help:"Cache generation bumps observed (invalidations by any process)"
    Obs.Metrics.Counter "cache.generation_bumps"

let dir_ref =
  ref (Option.value ~default:"_cache" (Sys.getenv_opt "ISECUSTOM_CACHE_DIR"))

let dir () = !dir_ref
let set_dir d = dir_ref := d

let enabled_ref = ref true
let enabled () = !enabled_ref
let set_enabled b = enabled_ref := b

let file_of ~namespace ~key =
  Filename.concat (dir ())
    (Printf.sprintf "%s-%s.cache" namespace
       (Digest.to_hex (Digest.string key)))

let ensure_dir () =
  let d = dir () in
  if not (Sys.file_exists d) then
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* --------------- cross-process coherence protocol ------------------ *)
(* A warm daemon can share [dir ()] with concurrent `batch`/CLI writers.
   Entry files are already torn-proof individually (atomic rename +
   digest), but two things need a protocol across processes:

   - mutations that must not interleave (a writer's rename racing a
     sibling's [clear] mid-sweep) take an exclusive advisory lock on
     [<dir>/.lock];
   - invalidation intent must become visible to processes holding warm
     in-memory copies: [<dir>/.generation] is a monotone counter bumped
     under the lock by [clear], and [Memo.revalidate] drops its
     resident tables when it observes a new generation.

   [Unix.lockf] locks are per-process and released when *any* fd onto
   the file closes, so in-process use is serialised behind a mutex —
   the file lock only ever arbitrates between processes, which is the
   one job fcntl locks do reliably. *)

let lock_path () = Filename.concat (dir ()) ".lock"
let gen_path () = Filename.concat (dir ()) ".generation"

let lock_mutex = Mutex.create ()

let with_file_lock f =
  Mutex.lock lock_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock_mutex)
    (fun () ->
      ensure_dir ();
      match Unix.openfile (lock_path ()) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
      | exception Unix.Unix_error _ ->
        (* a read-only or vanished directory: degrade to lockless, the
           same best-effort stance the writes themselves take *)
        f ()
      | lfd ->
        Fun.protect
          ~finally:(fun () ->
            (try Unix.lockf lfd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
            try Unix.close lfd with Unix.Unix_error _ -> ())
          (fun () ->
            (try Unix.lockf lfd Unix.F_LOCK 0 with Unix.Unix_error _ -> ());
            f ()))

let generation () =
  match open_in_bin (gen_path ()) with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | line -> Option.value ~default:0 (int_of_string_opt (String.trim line))
        | exception End_of_file -> 0)

let bump_generation () =
  with_file_lock (fun () ->
      let g = generation () + 1 in
      let tmp = Printf.sprintf "%s.tmp.%d" (gen_path ()) (Unix.getpid ()) in
      (try
         let oc = open_out tmp in
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () -> output_string oc (string_of_int g));
         Sys.rename tmp (gen_path ())
       with Sys_error _ | Unix.Unix_error _ -> (
         try Sys.remove tmp with Sys_error _ -> ()));
      Obs.Metrics.inc "cache.generation_bumps";
      g)

(* [<name>.tmp.<pid>] files are a live writer's scratch space until its
   rename; one left behind belongs to a writer that was SIGKILLed
   mid-write.  The pid in the name plus an age threshold tells the two
   apart: never reap a file whose writer is still alive. *)
let tmp_pid_of name =
  match String.rindex_opt name '.' with
  | None -> None
  | Some i ->
    let suffix = String.sub name (i + 1) (String.length name - i - 1) in
    let stem = String.sub name 0 i in
    if Filename.check_suffix stem ".tmp" then int_of_string_opt suffix else None

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM: alive, someone else's *)

let sweep_stale_tmp ?(older_than_s = 60.) () =
  match Sys.readdir (dir ()) with
  | exception Sys_error _ -> 0
  | files ->
    let now = Unix.gettimeofday () in
    let swept =
      Array.fold_left
        (fun n name ->
          match tmp_pid_of name with
          | None -> n
          | Some pid when pid_alive pid -> n
          | Some _ -> (
            let path = Filename.concat (dir ()) name in
            match Unix.stat path with
            | exception Unix.Unix_error _ -> n
            | st ->
              if now -. st.Unix.st_mtime < older_than_s then n
              else (
                match Sys.remove path with
                | () -> n + 1
                | exception Sys_error _ -> n)))
        0 files
    in
    if swept > 0 then begin
      Obs.Metrics.inc ~by:(float_of_int swept) "cache.tmp_swept";
      Obs.Flight.record "cache.tmp_swept"
        [ ("files", string_of_int swept); ("dir", dir ()) ];
      Log.warn "cache: reaped %d orphaned temp file(s) in %s (writer died \
                mid-write)" swept (dir ())
    end;
    swept

(* One marshalled 6-tuple per entry.  The payload is itself a marshalled
   string so that a partial read fails inside the outer unmarshal (or the
   digest check) instead of producing a half-built value. *)
type header = string * int * string * string * string (* magic, version, ns, key, digest *)

let write_versioned ~version ~namespace ~key payload =
  ensure_dir ();
  let file = file_of ~namespace ~key in
  let tmp = Printf.sprintf "%s.tmp.%d" file (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  let committed = ref false in
  (* The finally clause both closes the channel and unlinks the orphan
     tmp file when anything below raises (ENOSPC, an injected fault):
     a failed write must not leak one .tmp.<pid> per attempt. *)
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if not !committed then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Fault.inject "cache.write";
      Marshal.to_channel oc
        (((magic, version, namespace, key, Digest.string payload), payload)
          : header * string)
        [];
      flush oc;
      if Fault.fires "cache.truncate" then
        (* a torn write: the entry loses its tail but is still renamed
           into place, exactly what a crash between write and fsync
           leaves behind — the next read must see it as Corrupt *)
        Unix.ftruncate (Unix.descr_of_out_channel oc)
          (pos_out oc / 2);
      (* publish under the advisory lock so the rename cannot
         interleave with a sibling process's [clear] mid-sweep *)
      with_file_lock (fun () -> Sys.rename tmp file);
      committed := true)

let store_versioned ~version ~namespace ~key v =
  if enabled () then begin
    let payload = Marshal.to_string v [] in
    match write_versioned ~version ~namespace ~key payload with
    | () ->
      Log.debug "cache: stored %s/%s (%d bytes)" namespace key
        (String.length payload)
    | exception (Sys_error _ | Unix.Unix_error (_, _, _) | Fault.Injected _) ->
      (* degrade to in-memory-only: the caller keeps its computed value,
         the entry just is not persisted for the next process *)
      Obs.Metrics.inc ~labels:[ ("namespace", namespace) ] "cache.write_failed";
      Obs.Flight.record ~severity:Obs.Flight.Warn "cache.write_degraded"
        [ ("namespace", namespace); ("key", key) ];
      Log.warn "cache: could not persist %s/%s — continuing without the disk \
                entry" namespace key
  end

let store ~namespace ~key v =
  store_versioned ~version:format_version ~namespace ~key v

(* Distinguishing a missing entry from a damaged one lets [find] warn
   about real corruption (truncated writes, foreign files, version
   drift) while a plain cold miss stays silent. *)
type read_result =
  | Missing
  | Corrupt of string
  | Entry of header * string

let read_entry file : read_result =
  match open_in_bin file with
  | exception Sys_error _ -> Missing
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* Any corruption — truncation, garbage, a foreign file — lands
           here as an exception or a failed check and reads as a miss. *)
        match
          Fault.inject "cache.read";
          (Marshal.from_channel ic : header * string)
        with
        | ((m, _, _, _, _), _) when m <> magic -> Corrupt "bad magic"
        | ((_, v, _, _, _), _) when v <> format_version ->
          Corrupt (Printf.sprintf "format version %d (want %d)" v format_version)
        | ((_, _, _, _, digest), payload)
          when not (Digest.equal digest (Digest.string payload)) ->
          Corrupt "payload digest mismatch"
        | header, payload -> Entry (header, payload)
        | exception Fault.Injected p -> Corrupt ("injected fault at " ^ p)
        | exception _ -> Corrupt "truncated or unreadable")

let find ~namespace ~key () =
  if not (enabled ()) then None
  else begin
    let result =
      match read_entry (file_of ~namespace ~key) with
      | Entry ((_, _, ns, k, _), payload) when ns = namespace && k = key ->
        (try Some (Marshal.from_string payload 0)
         with _ ->
           Obs.Metrics.inc ~labels:[ ("namespace", namespace) ] "cache.corrupt";
           Obs.Flight.record ~severity:Obs.Flight.Warn "cache.corrupt"
             [ ("namespace", namespace); ("key", key);
               ("reason", "undecodable payload") ];
           Log.warn "cache: undecodable payload in %s/%s — recomputing"
             namespace key;
           None)
      | Corrupt reason ->
        Obs.Metrics.inc ~labels:[ ("namespace", namespace) ] "cache.corrupt";
        Obs.Flight.record ~severity:Obs.Flight.Warn "cache.corrupt"
          [ ("namespace", namespace); ("key", key); ("reason", reason) ];
        Log.warn "cache: %s in %s (%s/%s) — recomputing"
          reason (file_of ~namespace ~key) namespace key;
        None
      | Entry _ | Missing -> None
    in
    Obs.Metrics.inc
      ~labels:[ ("namespace", namespace) ]
      (if result = None then "cache.misses" else "cache.hits");
    Log.debug "cache: %s %s/%s"
      (if result = None then "miss" else "hit")
      namespace key;
    result
  end

type entry = { namespace : string; key : string; file : string; size : int }

let cache_files () =
  match Sys.readdir (dir ()) with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".cache")
    |> List.sort compare
    |> List.map (Filename.concat (dir ()))

let entries () =
  List.filter_map
    (fun file ->
      match read_entry file with
      | Entry ((_, _, namespace, key, _), payload) ->
        Some { namespace; key; file; size = String.length payload }
      | Missing | Corrupt _ ->
        (* keep corrupt/outdated files visible so `cache show` explains
           what `cache clear` would reclaim *)
        Some { namespace = "<unreadable>"; key = "-"; file;
               size = (try (Unix.stat file).Unix.st_size with _ -> 0) })
    (cache_files ())

let clear () =
  (* One exclusive lock over the whole sweep: a concurrent writer's
     rename lands either before (and is removed) or after (and
     survives whole) — never half-interleaved.  The generation bump
     inside the same critical section is what tells warm siblings
     ([Memo.revalidate]) their resident copies were invalidated. *)
  let n =
    with_file_lock (fun () ->
        let files = cache_files () in
        List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files;
        List.length files)
  in
  ignore (bump_generation () : int);
  ignore (sweep_stale_tmp ~older_than_s:0. () : int);
  n

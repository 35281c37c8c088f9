let base_params = Ise.Curve.small

(* Process-wide generator selection (the CLI's [--generator]).  The
   in-process memo tables are keyed by kernel name only, so switching
   generators must drop them; the persistent store is safe because the
   generator is part of [Ise.Curve.params_key]. *)
let generator = ref Ise.Isegen.Exhaustive
let hw = ref Isa.Hw_model.uniform

(* Two-level cache: a per-process memo table in front of the persistent
   Engine.Cache store, so one process never deserialises an entry twice
   and a warm process never regenerates a curve at all.  Namespaces
   carry a schema tag; bump them (or Engine.Cache.format_version) when
   the stored value's meaning changes. *)
let curve_ns = "curve"
let cand_ns = "candidates.v2"

let curve_table : (string, Isa.Config.t) Hashtbl.t = Hashtbl.create 32
let candidate_table : (string, Ise.Select.candidate list) Hashtbl.t = Hashtbl.create 32

let reset () =
  Hashtbl.reset curve_table;
  Hashtbl.reset candidate_table

let set_generator g =
  if g <> !generator then begin
    generator := g;
    reset ()
  end

let set_hw b =
  if not (b == !hw) then begin
    hw := b;
    reset ()
  end

let current_params () =
  { base_params with Ise.Curve.generator = !generator; hw = !hw }

let key_of name = name ^ "|" ^ Ise.Curve.params_key (current_params ())

let cached table ~namespace ~generate name =
  match Hashtbl.find_opt table name with
  | Some v ->
    Engine.Telemetry.incr "curves.memo_hits";
    v
  | None ->
    Engine.Trace.with_span "curves.lookup"
      ~attrs:[ ("kernel", name); ("namespace", namespace) ]
    @@ fun () ->
    let key = key_of name in
    let v =
      match Engine.Cache.find ~namespace ~key () with
      | Some v -> v
      | None ->
        Engine.Log.info "curves: generating %s for %s" namespace name;
        let v = generate (Kernels.find name) in
        Engine.Cache.store ~namespace ~key v;
        v
    in
    Hashtbl.add table name v;
    v

let curve name =
  cached curve_table ~namespace:curve_ns
    ~generate:(Ise.Curve.generate ~params:(current_params ())) name

let candidates name =
  cached candidate_table ~namespace:cand_ns
    ~generate:(Ise.Curve.candidates ~params:(current_params ())) name

let warm ?pool names =
  Engine.Trace.with_span "curves.warm"
    ~attrs:[ ("kernels", string_of_int (List.length names)) ]
  @@ fun () ->
  let missing =
    List.sort_uniq compare names
    |> List.filter (fun n -> not (Hashtbl.mem curve_table n))
  in
  (* pull persisted curves first so the pool is handed only real
     generation work *)
  let to_generate =
    List.filter
      (fun name ->
        match Engine.Cache.find ~namespace:curve_ns ~key:(key_of name) () with
        | Some c ->
          Hashtbl.replace curve_table name c;
          false
        | None -> true)
      missing
  in
  if to_generate <> [] then
    Engine.Log.info "curves: warming %d kernel%s%s" (List.length to_generate)
      (if List.length to_generate = 1 then "" else "s")
      (match pool with
       | Some p when Engine.Parallel.Pool.jobs p > 1 ->
         Printf.sprintf " on %d domains" (Engine.Parallel.Pool.jobs p)
       | _ -> "");
  (* outer items are per kernel; each generation then splits into
     per-block / per-budget items on the same pool, so the curves that
     finish early leave their domains free to steal the stragglers' *)
  (match pool with
   | Some p ->
     Engine.Parallel.Pool.map p
       (fun name ->
         (name, Ise.Curve.generate ~pool:p ~params:(current_params ())
                  (Kernels.find name)))
       to_generate
   | None ->
     List.map
       (fun name ->
         (name, Ise.Curve.generate ~params:(current_params ()) (Kernels.find name)))
       to_generate)
  |> List.iter (fun (name, c) ->
         Engine.Cache.store ~namespace:curve_ns ~key:(key_of name) c;
         Hashtbl.replace curve_table name c)

let taskset_ch3 = function
  | 1 -> [ "crc32"; "sha"; "jpeg_dec"; "blowfish" ]
  | 2 -> [ "blowfish"; "adpcm_dec"; "crc32"; "jpeg_enc" ]
  | 3 -> [ "adpcm_enc"; "blowfish"; "jpeg_dec"; "crc32" ]
  | 4 -> [ "sha"; "susan"; "crc32"; "g721encode" ]
  | 5 -> [ "adpcm_dec"; "jpeg_dec"; "crc32"; "blowfish" ]
  | 6 -> [ "crc32"; "sha"; "blowfish"; "susan" ]
  | n -> invalid_arg (Printf.sprintf "taskset_ch3: no task set %d" n)

let taskset_ch4 = function
  | 1 -> [ "jpeg_enc"; "adpcm_enc"; "aes"; "compress"; "rijndael"; "md5" ]
  | 2 -> [ "jpeg_dec"; "g721decode"; "jpeg_enc"; "md5"; "adpcm_enc"; "jfdctint"; "aes" ]
  | 3 -> [ "jpeg_enc"; "md5"; "edn"; "sha"; "g721decode"; "jpeg_dec"; "compress"; "ndes" ]
  | 4 -> [ "adpcm_enc"; "rijndael"; "jpeg_enc"; "md5"; "sha"; "ndes"; "jpeg_dec"; "compress"; "edn" ]
  | 5 -> [ "aes"; "jpeg_dec"; "g721decode"; "rijndael"; "jfdctint"; "jpeg_enc"; "edn"; "md5"; "sha"; "ndes" ]
  | n -> invalid_arg (Printf.sprintf "taskset_ch4: no task set %d" n)

let taskset_ch5 = function
  | 1 -> [ "3des"; "rijndael"; "sha"; "g721decode" ]
  | 2 -> [ "sha"; "jfdctint"; "rijndael"; "ndes" ]
  | 3 -> [ "ndes"; "g721decode"; "rijndael"; "sha" ]
  | 4 -> [ "aes"; "3des"; "adpcm_enc"; "jfdctint" ]
  | 5 -> [ "adpcm_enc"; "jfdctint"; "rijndael"; "sha" ]
  | n -> invalid_arg (Printf.sprintf "taskset_ch5: no task set %d" n)

let tasks_of ~u names =
  List.map (fun name -> Rt.Task.make ~name ~period:1 (curve name)) names
  |> Rt.Task.with_target_utilization u

let max_area_of tasks =
  Util.Numeric.sum_by (fun (t : Rt.Task.t) -> Isa.Config.max_area t.curve) tasks

let base_params = Ise.Curve.small

(* Process-wide generator and cost-backend selection (the CLI's
   [--generator] / [--hw-model]).  Both are part of
   [Ise.Curve.params_key], so they are part of every memo key and
   switching needs no invalidation. *)
let generator = ref Ise.Isegen.Exhaustive
let hw = ref Isa.Hw_model.uniform

let set_generator g = generator := g
let set_hw b = hw := b

let current_params () =
  { base_params with Ise.Curve.generator = !generator; hw = !hw }

(* Spilling memos in front of the persistent Engine.Cache store, so one
   process never deserialises an entry twice and a warm process never
   regenerates a curve at all.  Namespaces carry a schema tag; bump
   them (or Engine.Cache.format_version) when the stored value's
   meaning changes. *)
let curve_memo : Isa.Config.t Engine.Memo.t =
  Engine.Memo.create ~namespace:"curve" ()

let candidate_memo : Ise.Select.candidate list Engine.Memo.t =
  Engine.Memo.create ~namespace:"candidates.v2" ()

let reset () =
  Engine.Memo.clear curve_memo;
  Engine.Memo.clear candidate_memo

let key_of name = name ^ "|" ^ Ise.Curve.params_key (current_params ())

let cached memo generate name =
  fst
  @@ Engine.Memo.find_or_compute memo ~key:(key_of name)
  @@ fun () ->
  Engine.Log.info "curves: no cached entry for %s, generating" name;
  generate (Kernels.find name)

let curve name =
  cached curve_memo (Ise.Curve.generate ~params:(current_params ())) name

let candidates name =
  cached candidate_memo (Ise.Curve.candidates ~params:(current_params ())) name

let warm ?pool names =
  Engine.Trace.with_span "curves.warm"
    ~attrs:[ ("kernels", string_of_int (List.length names)) ]
  @@ fun () ->
  (* resident and persisted curves first, so the pool is handed only
     real generation work *)
  let to_generate =
    List.sort_uniq compare names
    |> List.filter (fun name ->
           Option.is_none (Engine.Memo.find curve_memo ~key:(key_of name)))
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
  |> List.iter (fun (name, c) -> Engine.Memo.store curve_memo ~key:(key_of name) c)

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

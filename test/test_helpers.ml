(* Shared QCheck generators for the test suites, and the fixed inputs
   the correctness tests and the timing floors (perf_gates.ml) share. *)

let gen_small_dfg =
  (* A random DAG over valid and invalid operations, built the same way
     the production builder is driven: edges only point forward. *)
  QCheck.Gen.(
    let* n = int_range 1 24 in
    let* seed = int_range 0 1_000_000 in
    return
      (let prng = Util.Prng.create seed in
       let b = Ir.Dfg.Builder.create () in
       for i = 0 to n - 1 do
         let kinds =
           [| Ir.Op.Add; Ir.Op.Sub; Ir.Op.Mul; Ir.Op.Xor; Ir.Op.And;
              Ir.Op.Shl; Ir.Op.Cmp; Ir.Op.Select; Ir.Op.Load; Ir.Op.Store |]
         in
         let kind = Util.Prng.choose prng kinds in
         let id = Ir.Dfg.Builder.add b kind in
         assert (id = i);
         let wired = ref [] in
         for _ = 1 to Ir.Op.arity kind do
           if i > 0 && Util.Prng.float prng 1.0 < 0.7 then begin
             let src = Util.Prng.int prng i in
             if not (List.mem src !wired) then begin
               wired := src :: !wired;
               Ir.Dfg.Builder.edge b src id
             end
           end
         done
       done;
       Ir.Dfg.Builder.finish b))

let arb_small_dfg = QCheck.make ~print:(fun _ -> "<dfg>") gen_small_dfg

let gen_node_set dfg =
  QCheck.Gen.(
    let n = Ir.Dfg.node_count dfg in
    let* seed = int_range 0 1_000_000 in
    let* k = int_range 1 (max 1 n) in
    return
      (let prng = Util.Prng.create seed in
       let set = Util.Bitset.create n in
       for _ = 1 to k do
         Util.Bitset.set set (Util.Prng.int prng n)
       done;
       set))

let arb_dfg_with_set =
  QCheck.make
    ~print:(fun (dfg, set) ->
      Printf.sprintf "dfg(%d nodes) set={%s}" (Ir.Dfg.node_count dfg)
        (String.concat "," (List.map string_of_int (Util.Bitset.elements set))))
    QCheck.Gen.(gen_small_dfg >>= fun dfg ->
                gen_node_set dfg >|= fun set -> (dfg, set))

(* Random periodic task sets with small integer parameters, so that
   hyperperiods stay simulable. *)
let gen_taskset =
  QCheck.Gen.(
    let* n = int_range 1 5 in
    list_repeat n
      (let* period = int_range 2 30 in
       let* cycles = int_range 1 period in
       return (cycles, period)))

let arb_taskset =
  QCheck.make
    ~print:(fun ts ->
      String.concat ";" (List.map (fun (c, p) -> Printf.sprintf "(%d,%d)" c p) ts))
    gen_taskset

(* Random configuration curves: base cycles plus improving points. *)
let gen_curve =
  QCheck.Gen.(
    let* base = int_range 10 200 in
    let* points =
      list_size (int_range 0 5)
        (let* area = int_range 1 40 in
         let* cycles = int_range 1 base in
         return { Isa.Config.area; cycles })
    in
    return (Isa.Config.of_points ~base_cycles:base points))

let gen_task_with_curve name_index =
  QCheck.Gen.(
    let* curve = gen_curve in
    let* factor = int_range 2 8 in
    let period = Isa.Config.base_cycles curve * factor in
    return (Rt.Task.make ~name:(Printf.sprintf "t%d" name_index) ~period curve))

let gen_rt_taskset =
  QCheck.Gen.(
    let* n = int_range 1 4 in
    let rec build i =
      if i = n then return []
      else
        let* t = gen_task_with_curve i in
        let* rest = build (i + 1) in
        return (t :: rest)
    in
    build 0)

let arb_rt_taskset =
  QCheck.make
    ~print:(fun ts -> String.concat ";" (List.map (fun t -> Format.asprintf "%a" Rt.Task.pp t) ts))
    gen_rt_taskset

(* A solver request stream: one request per op over [instances]
   generated instances (PRNG seeds [seed], [seed + 1], ...), the whole
   list repeated [copies] times, ids [prefix] + position. *)
let op_stream ~prefix ~seed ~instances ~copies =
  let module P = Batch.Protocol in
  let uniques =
    List.concat_map
      (fun i ->
        let inst = Check.Gen.instance (Util.Prng.create (seed + i)) in
        List.map
          (fun op -> (op, inst))
          [ P.Edf; P.Rms; P.Pareto_exact; P.Pareto_approx; P.Curve ])
      (List.init instances Fun.id)
  in
  List.mapi
    (fun i (op, instance) ->
      { P.id = Printf.sprintf "%s%03d" prefix i; op; instance;
        generator = Ise.Isegen.Exhaustive })
    (List.concat (List.init copies (fun _ -> uniques)))

let biggest_block name =
  let blocks = Ir.Cfg.blocks (Kernels.find name) in
  (List.fold_left
     (fun acc (b : Ir.Cfg.block) ->
       if Ir.Dfg.node_count b.Ir.Cfg.body > Ir.Dfg.node_count acc.Ir.Cfg.body
       then b
       else acc)
     (List.hd blocks) blocks)
    .Ir.Cfg.body

(* Blocks big enough to saturate the exhaustive enumerator's small
   budget: where the ISEGEN generator has to break the cap. *)
let cap_breaking_blocks () =
  [ ("sha", biggest_block "sha"); ("rijndael", biggest_block "rijndael");
    ( "blockgen-400",
      Kernels.Blockgen.block (Util.Prng.create 7) ~size:400
        Kernels.Blockgen.dsp_mix ) ]

(* Coverage scales with the block: a walk seeded from (almost) every
   node, the merge pool drawn from the richer pool. *)
let cap_breaking_params dfg =
  { Ise.Isegen.default_params with
    Ise.Isegen.restarts = min 256 (Ir.Dfg.node_count dfg);
    merge_pool = 48 }

(* Gain a selector can bank under the real ISA constraint: a handful
   of free opcodes, so the 8 best pairwise-disjoint candidates. *)
let selected_gain dfg cands =
  let used = Util.Bitset.create (Ir.Dfg.node_count dfg) in
  let sorted =
    List.stable_sort
      (fun a b -> compare (Isa.Custom_inst.gain b) (Isa.Custom_inst.gain a))
      cands
  in
  let rec go acc left = function
    | [] -> acc
    | _ when left = 0 -> acc
    | (ci : Isa.Custom_inst.t) :: rest ->
      if Util.Bitset.intersects ci.Isa.Custom_inst.nodes used then
        go acc left rest
      else begin
        Util.Bitset.union_into used ci.Isa.Custom_inst.nodes;
        go (acc +. float_of_int (Isa.Custom_inst.gain ci)) (left - 1) rest
      end
  in
  go 0. 8 sorted

(* Remove a file or directory tree a test made; a missing path is fine. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

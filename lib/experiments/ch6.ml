(* Chapter 6 — runtime reconfiguration of custom instructions (§6.4). *)

let published_table_6_1 =
  (* (hot loops, exhaustive s, greedy s, iterative s) from Table 6.1 *)
  [ (5, Some 0.26, 0.01, 0.07); (6, Some 1.34, 0.02, 0.07);
    (7, Some 7.84, 0.01, 0.07); (8, Some 43.91, 0.01, 0.09);
    (9, Some 283.22, 0.04, 0.07); (10, Some 1788.20, 0.01, 0.11);
    (11, Some 12604.33, 0.01, 0.13); (12, Some 86338.37, 0.01, 0.15);
    (20, None, 0.02, 0.48); (40, None, 0.04, 4.30); (60, None, 0.07, 18.25);
    (80, None, 0.11, 55.61); (100, None, 0.16, 118.76) ]

let sizes_timing = [ 5; 6; 7; 8; 9; 10; 11; 12; 20; 40; 60; 80; 100 ]
let exhaustive_limit = 12

let table_6_1 fmt =
  Report.banner fmt ~id:"Table 6.1" "running time of the algorithms (synthetic input)";
  Report.row fmt
    [ Report.cellr ~width:6 "loops"; Report.cellr ~width:14 "exhaustive(s)";
      Report.cellr ~width:12 "greedy(s)"; Report.cellr ~width:13 "iterative(s)";
      Report.cell ~width:34 "  published (exh/greedy/iter)" ];
  List.iter
    (fun n ->
      let p = Reconfig.Synthetic.generate ~seed:(1000 + n) ~loops:n in
      let exhaustive_cell =
        if n > exhaustive_limit then Report.cellr ~width:14 "N.A."
        else
          let result, elapsed =
            Report.timed (fun () ->
                Reconfig.Algorithms.exhaustive ~max_partitions:5_000_000 p)
          in
          match result with
          | Some _ -> Report.cellr ~width:14 (Printf.sprintf "%.2f" elapsed)
          | None -> Report.cellr ~width:14 "refused"
      in
      let _, greedy_t = Report.timed (fun () -> Reconfig.Algorithms.greedy p) in
      let _, iter_t = Report.timed (fun () -> Reconfig.Algorithms.iterative p) in
      let published =
        match List.assoc_opt n (List.map (fun (a, b, c, d) -> (a, (b, c, d))) published_table_6_1) with
        | Some (Some e, g, i) -> Printf.sprintf "  %.2f / %.2f / %.2f" e g i
        | Some (None, g, i) -> Printf.sprintf "  N.A. / %.2f / %.2f" g i
        | None -> ""
      in
      Report.row fmt
        [ Report.cellr ~width:6 (string_of_int n); exhaustive_cell;
          Report.cellr ~width:12 (Printf.sprintf "%.3f" greedy_t);
          Report.cellr ~width:13 (Printf.sprintf "%.3f" iter_t);
          Report.cell ~width:34 published ])
    sizes_timing

let figure_6_4 fmt =
  Report.banner fmt ~id:"Figure 6.4" "motivating example (published numbers)";
  let loops =
    [ Reconfig.Problem.loop "loop1" [ (111, 257); (160, 301); (563, 1612) ];
      Reconfig.Problem.loop "loop2" [ (230, 76); (387, 1041); (426, 1321); (556, 2004) ];
      Reconfig.Problem.loop "loop3" [ (493, 967); (549, 1249) ] ]
  in
  let trace =
    Ir.Trace.of_pair_counts
      [ (("loop1", "loop2"), 9); (("loop1", "loop3"), 9); (("loop2", "loop3"), 31) ]
  in
  let p = { Reconfig.Problem.loops; trace; max_area = 2048; reconfig_cost = 15 } in
  let show label placement =
    Report.row fmt
      [ Report.cell ~width:26 label;
        Printf.sprintf "gain %dK - %d reconfigs x 15K = net %dK"
          (Reconfig.Problem.raw_gain p placement)
          (Reconfig.Problem.reconfigurations p placement)
          (Reconfig.Problem.net_gain p placement) ]
  in
  let static_sel =
    Reconfig.Algorithms.spatial_select ~loops ~area:2048
  in
  show "(A) static, k=1"
    { Reconfig.Problem.version_of = static_sel;
      config_of =
        List.filter_map (fun (n, j) -> if j > 0 then Some (n, 0) else None) static_sel };
  show "(B) one loop per config"
    { Reconfig.Problem.version_of = [ ("loop1", 3); ("loop2", 4); ("loop3", 2) ];
      config_of = [ ("loop1", 0); ("loop2", 1); ("loop3", 2) ] };
  show "(C) iterative algorithm" (Reconfig.Algorithms.iterative p);
  Report.row fmt
    [ "paper: (A) 883K, (B) 933K, (C) 1173K  (the thesis's (A) illustrates a \
       particular static choice; our static DP finds the optimal one)" ]

let figure_6_8 fmt =
  Report.banner fmt ~id:"Figure 6.8" "solution quality (net gain, synthetic input)";
  Report.row fmt
    [ Report.cellr ~width:6 "loops"; Report.cellr ~width:12 "exhaustive";
      Report.cellr ~width:12 "greedy"; Report.cellr ~width:12 "iterative";
      Report.cellr ~width:16 "iter/greedy" ];
  List.iter
    (fun n ->
      let p = Reconfig.Synthetic.generate ~seed:(2000 + n) ~loops:n in
      let exhaustive_gain =
        if n > exhaustive_limit then None
        else
          Option.map (Reconfig.Problem.net_gain p)
            (Reconfig.Algorithms.exhaustive ~max_partitions:5_000_000 p)
      in
      let greedy_gain = Reconfig.Problem.net_gain p (Reconfig.Algorithms.greedy p) in
      let iter_gain = Reconfig.Problem.net_gain p (Reconfig.Algorithms.iterative p) in
      Report.row fmt
        [ Report.cellr ~width:6 (string_of_int n);
          Report.cellr ~width:12
            (match exhaustive_gain with
             | Some g -> string_of_int g
             | None -> "N.A.");
          Report.cellr ~width:12 (string_of_int greedy_gain);
          Report.cellr ~width:12 (string_of_int iter_gain);
          Report.cellr ~width:16
            (Printf.sprintf "%.2fx" (float_of_int iter_gain /. Float.max 1. (float_of_int greedy_gain))) ])
    [ 5; 6; 7; 8; 9; 10; 11; 12; 14; 16; 20 ]

(* The JPEG case study (Table 6.2 / Figure 6.10): hot loops modelled from
   the JPEG encoder kernel, CIS versions generated by the real
   identification/selection pipeline, and the loop trace of a frame. *)
let jpeg_problem ~max_area ~reconfig_cost =
  let mk_loop name block_builder iterations =
    let dfg = block_builder () in
    let cfg = { Ir.Cfg.name; code = Ir.Cfg.loop iterations (Ir.Cfg.block "body" dfg) } in
    let curve = Ise.Curve.generate ~params:Ise.Curve.small cfg in
    let points =
      Array.to_list (Isa.Config.points curve)
      |> List.filter_map (fun (pt : Isa.Config.point) ->
             if pt.area = 0 then None
             else Some (Isa.Config.base_cycles curve - pt.cycles, pt.area))
    in
    (* keep at most 5 versions, spread over the curve *)
    let n = List.length points in
    let stride = max 1 (n / 5) in
    let sampled =
      List.filteri (fun i _ -> i mod stride = 0 || i = n - 1) points
      |> List.sort_uniq compare
    in
    Reconfig.Problem.loop name sampled
  in
  let prng = Util.Prng.create 600 in
  let dsp size () = Kernels.Blockgen.block prng ~loads:4 ~stores:2 ~size Kernels.Blockgen.dsp_mix in
  let ctrl size () = Kernels.Blockgen.block prng ~loads:3 ~stores:1 ~size Kernels.Blockgen.control_mix in
  let loops =
    [ mk_loop "color_convert" (dsp 48) 256;
      mk_loop "dct" (fun () -> Kernels.Blockgen.dct8 ()) 512;
      mk_loop "quantize" (ctrl 24) 512;
      mk_loop "zigzag" (ctrl 16) 256;
      mk_loop "huffman" (ctrl 40) 256 ]
  in
  (* per-MCU activation sequence over a 64-MCU frame *)
  let trace =
    Ir.Trace.repeat [ "color_convert"; "dct"; "quantize"; "zigzag"; "huffman" ] 64
  in
  { Reconfig.Problem.loops; trace; max_area; reconfig_cost }

let table_6_2 fmt =
  Report.banner fmt ~id:"Table 6.2" "CIS versions for the JPEG application";
  let p = jpeg_problem ~max_area:1000 ~reconfig_cost:50 in
  Report.row fmt
    [ Report.cell ~width:16 "loop"; Report.cell "versions (gain/area)" ];
  List.iter
    (fun (l : Reconfig.Problem.hot_loop) ->
      Report.row fmt
        [ Report.cell ~width:16 l.name;
          String.concat "  "
            (Array.to_list l.versions
             |> List.filteri (fun i _ -> i > 0)
             |> List.map (fun (v : Reconfig.Problem.version) ->
                    Printf.sprintf "%d/%d" v.gain v.area)) ])
    p.Reconfig.Problem.loops

let figure_6_10 fmt =
  Report.banner fmt ~id:"Figure 6.10" "JPEG case study: solution quality vs fabric size";
  Report.row fmt
    [ Report.cellr ~width:10 "max area"; Report.cellr ~width:12 "exhaustive";
      Report.cellr ~width:12 "greedy"; Report.cellr ~width:12 "iterative";
      Report.cellr ~width:10 "configs" ];
  (* the loops' curves do not depend on the fabric size: build them once *)
  let jpeg = jpeg_problem ~max_area:0 ~reconfig_cost:50 in
  List.iter
    (fun max_area ->
      let p = { jpeg with Reconfig.Problem.max_area } in
      let ex =
        Option.map (Reconfig.Problem.net_gain p) (Reconfig.Algorithms.exhaustive p)
      in
      let greedy_gain = Reconfig.Problem.net_gain p (Reconfig.Algorithms.greedy p) in
      let iter_placement = Reconfig.Algorithms.iterative p in
      let iter_gain = Reconfig.Problem.net_gain p iter_placement in
      Report.row fmt
        [ Report.cellr ~width:10 (string_of_int max_area);
          Report.cellr ~width:12
            (match ex with Some g -> string_of_int g | None -> "N.A.");
          Report.cellr ~width:12 (string_of_int greedy_gain);
          Report.cellr ~width:12 (string_of_int iter_gain);
          Report.cellr ~width:10 (string_of_int (Reconfig.Problem.num_configs iter_placement)) ])
    [ 250; 500; 750; 1000; 1500; 2000 ]

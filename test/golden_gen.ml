(* Emits the golden request corpus on stdout — run via `make
   golden-update`, which regenerates test/golden/cases.jsonl and then
   the expected responses.  Deterministic: handcrafted instances plus
   fixed-seed Check.Gen draws, so regeneration is idempotent. *)

module P = Batch.Protocol

let task ~period ~base points =
  { Batch.Instance.period;
    base;
    points =
      List.map (fun (area, cycles) -> { Batch.Instance.area; cycles }) points }

let no_dfg = { Batch.Instance.kinds = []; edges = []; live_outs = [] }

let two_task =
  { Batch.Instance.tasks =
      [ task ~period:100 ~base:50 [ (5, 30); (10, 20) ];
        task ~period:80 ~base:40 [ (4, 25) ] ];
    budget = 10;
    eps = 0.5;
    dfg = no_dfg }

let diamond =
  { two_task with
    Batch.Instance.dfg =
      { Batch.Instance.kinds = [ Ir.Op.Const; Add; Mul; Xor; Add ];
        edges = [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ];
        live_outs = [ 4 ] } }

let () =
  let specs =
    (* a budget sweep over one task set, with a permuted and an exact
       duplicate riding along *)
    List.map
      (fun b -> (P.Edf, { two_task with Batch.Instance.budget = b }))
      [ 0; 5; 10; 14 ]
    @ [ ( P.Edf,
          { two_task with
            Batch.Instance.tasks = List.rev two_task.Batch.Instance.tasks } );
        (P.Edf, two_task);
        (P.Rms, two_task);
        (P.Pareto_exact, two_task);
        (P.Pareto_approx, { two_task with Batch.Instance.eps = 0.3 });
        (P.Curve, diamond);
        ( P.Curve,
          { diamond with
            Batch.Instance.dfg = Check.Props.renumber_dfg diamond.Batch.Instance.dfg
          } ) ]
    @ List.concat_map
        (fun seed ->
          let inst = Check.Gen.instance (Util.Prng.create seed) in
          let op =
            match seed mod 5 with
            | 0 -> P.Edf
            | 1 -> P.Rms
            | 2 -> P.Pareto_exact
            | 3 -> P.Pareto_approx
            | _ -> P.Curve
          in
          (* each generated instance appears twice: the second is the
             warm half of the corpus *)
          [ (op, inst); (op, inst) ])
        [ 1; 2; 3; 4; 5 ]
  in
  let isegen_specs =
    (* the iterative generator covers the same diamond pair (its keys
       must diverge from the exhaustive ones above) plus two generated
       instances of its own *)
    [ (P.Curve, diamond);
      ( P.Curve,
        { diamond with
          Batch.Instance.dfg = Check.Props.renumber_dfg diamond.Batch.Instance.dfg
        } ) ]
    @ List.map
        (fun seed -> (P.Curve, Check.Gen.instance (Util.Prng.create seed)))
        [ 6; 7 ]
  in
  let line generator i (op, instance) =
    print_endline
      (P.request_line { P.id = Printf.sprintf "g%02d" i; op; instance; generator })
  in
  List.iteri (line Ise.Isegen.Exhaustive) specs;
  List.iteri
    (fun i spec -> line Ise.Isegen.Isegen (List.length specs + i) spec)
    isegen_specs

let uunifast prng ~n ~total =
  if n < 1 || total <= 0. then invalid_arg "Gen.uunifast";
  (* Bini–Buttazzo: peel utilization off the remaining sum with the
     (n-i)-th root of a uniform draw; keeps the vector uniform on the
     simplex.  Guard each share away from 0 so periods stay finite. *)
  let rec go i sum acc =
    if i = n then List.rev (sum :: acc)
    else begin
      let r = Util.Prng.float prng 1.0 in
      let next = sum *. (r ** (1. /. float_of_int (n - i))) in
      go (i + 1) next ((sum -. next) :: acc)
    end
  in
  List.map (fun u -> Float.max u (0.001 *. total)) (go 1 total [])

let curve_points prng ~base =
  let k = Util.Prng.int prng 4 in
  List.init k (fun _ ->
      { Batch.Instance.area = Util.Prng.in_range prng 1 40;
        cycles = Util.Prng.in_range prng 1 base })

let task_set prng =
  let n = Util.Prng.in_range prng 1 4 in
  let total = 0.4 +. Util.Prng.float prng 1.2 in
  let bases = List.init n (fun _ -> Util.Prng.in_range prng 10 120) in
  let shares = uunifast prng ~n ~total in
  let specs =
    List.map2
      (fun base u ->
        let period =
          Util.Numeric.clamp ~lo:1 ~hi:1_000_000
            (int_of_float (Float.round (float_of_int base /. u)))
        in
        { Batch.Instance.period; base; points = curve_points prng ~base })
      bases shares
  in
  (* Distinct periods: RMS priority order (and hence the B&B/oracle
     comparison) must be unambiguous. *)
  let seen = Hashtbl.create 8 in
  List.map
    (fun (ts : Batch.Instance.task_spec) ->
      let period = ref ts.period in
      while Hashtbl.mem seen !period do incr period done;
      Hashtbl.add seen !period ();
      { ts with period = !period })
    specs

let budget_for prng specs =
  let max_area =
    Util.Numeric.sum_by
      (fun (ts : Batch.Instance.task_spec) ->
        List.fold_left (fun acc (p : Batch.Instance.curve_point) -> max acc p.area) 0
          ts.points)
      specs
  in
  Util.Prng.int prng (max_area + 11)

let dfg_kinds =
  [| Ir.Op.Add; Ir.Op.Sub; Ir.Op.Mul; Ir.Op.Div; Ir.Op.And; Ir.Op.Or;
     Ir.Op.Xor; Ir.Op.Not; Ir.Op.Shl; Ir.Op.Shr; Ir.Op.Cmp; Ir.Op.Select;
     Ir.Op.Const; Ir.Op.Load; Ir.Op.Store; Ir.Op.Branch |]

let dfg_spec prng =
  let n = Util.Prng.in_range prng 1 14 in
  let kinds = List.init n (fun _ -> Util.Prng.choose prng dfg_kinds) in
  let edges = ref [] in
  List.iteri
    (fun i kind ->
      if i > 0 then begin
        let wired = ref [] in
        for _ = 1 to Ir.Op.arity kind do
          if Util.Prng.float prng 1.0 < 0.7 then begin
            let src = Util.Prng.int prng i in
            if not (List.mem src !wired) then begin
              wired := src :: !wired;
              edges := (src, i) :: !edges
            end
          end
        done
      end)
    kinds;
  let live_outs =
    List.init n (fun i -> i)
    |> List.filter (fun _ -> Util.Prng.float prng 1.0 < 0.15)
  in
  { Batch.Instance.kinds; edges = List.rev !edges; live_outs }

let instance prng =
  let tasks_rng = Util.Prng.split prng in
  let budget_rng = Util.Prng.split prng in
  let dfg_rng = Util.Prng.split prng in
  let tasks = task_set tasks_rng in
  { Batch.Instance.tasks;
    budget = budget_for budget_rng tasks;
    eps = 0.05 +. Util.Prng.float (Util.Prng.split prng) 0.95;
    dfg = dfg_spec dfg_rng }

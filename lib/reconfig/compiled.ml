type t = {
  problem : Problem.t;
  names : string array;
  versions : Problem.version array array;
  trace : int array;
  by_name : (string, int) Hashtbl.t;
}

let compile (p : Problem.t) =
  let names = Array.of_list (List.map (fun (l : Problem.hot_loop) -> l.name) p.loops) in
  let versions = Array.of_list (List.map (fun (l : Problem.hot_loop) -> l.versions) p.loops) in
  let by_name = Hashtbl.create (2 * Array.length names) in
  Array.iteri
    (fun i name -> if not (Hashtbl.mem by_name name) then Hashtbl.add by_name name i)
    names;
  let trace =
    Ir.Trace.to_list p.trace |> List.filter_map (Hashtbl.find_opt by_name) |> Array.of_list
  in
  { problem = p; names; versions; trace; by_name }

let index t name = Hashtbl.find t.by_name name

let feasible t ~version ~config =
  let n = Array.length t.names in
  let area = Array.make n 0 in
  let ok = ref true in
  for i = 0 to n - 1 do
    let v = version.(i) and c = config.(i) in
    if v < 0 || v >= Array.length t.versions.(i) then ok := false
    else if (v > 0) <> (c >= 0) then ok := false
    else if c >= 0 then area.(c) <- area.(c) + t.versions.(i).(v).area
  done;
  !ok && Array.for_all (fun a -> a <= t.problem.max_area) area

let reconfigurations t ~config =
  let count = ref 0 and current = ref (-1) in
  Array.iter
    (fun i ->
      let c = config.(i) in
      if c >= 0 && c <> !current then begin
        if !current >= 0 then incr count;
        current := c
      end)
    t.trace;
  !count

let net_gain t ~version ~config =
  let gain = ref 0 in
  Array.iteri (fun i v -> gain := !gain + t.versions.(i).(v).gain) version;
  !gain - (reconfigurations t ~config * t.problem.reconfig_cost)

module IntSet = Set.Make (Int)

let total_utilization tasks =
  Util.Numeric.sum_byf
    (fun (c, p) -> float_of_int c /. float_of_int p)
    tasks

let edf_schedulable tasks = total_utilization tasks <= 1.

(* S_i(P_i) of Theorem 1, ascending: the scheduling points for task i
   under interference from the i higher-priority tasks.  Points that
   collapse to 0 are dropped (they correspond to no positive deadline
   and make the test vacuous). *)
let level_points periods i =
  let rec s j t acc =
    if t <= 0 then acc
    else if j = 0 then IntSet.add t acc
    else
      let p = periods.(j - 1) in
      let acc = s (j - 1) (t / p * p) acc in
      s (j - 1) t acc
  in
  Array.of_list (IntSet.elements (s i periods.(i) IntSet.empty))

(* Lᵢ ≤ 1: some scheduling point t has workload Σ_{j≤i} ⌈t/Pⱼ⌉·Cⱼ ≤ t.
   Written as plain loops so the branch-and-bound can call it once per
   candidate configuration without allocating. *)
let level_fits ~points ~periods ~cycles i =
  let fits = ref false and k = ref 0 in
  while (not !fits) && !k < Array.length points do
    let t = points.(!k) in
    let w = ref 0 in
    for j = 0 to i do
      w := !w + (Util.Numeric.ceil_div t periods.(j) * cycles.(j))
    done;
    fits := !w <= t;
    incr k
  done;
  !fits

let rms_schedulable_prefix tasks i =
  let periods = Array.map snd tasks in
  level_fits ~points:(level_points periods i) ~periods ~cycles:(Array.map fst tasks) i

let sort_by_period tasks =
  Array.of_list (List.sort (fun (_, p1) (_, p2) -> compare p1 p2) tasks)

let rms_schedulable tasks =
  let sorted = sort_by_period tasks in
  let n = Array.length sorted in
  let rec all i = i >= n || (rms_schedulable_prefix sorted i && all (i + 1)) in
  all 0

let liu_layland_bound n =
  if n <= 0 then 0.
  else float_of_int n *. ((2. ** (1. /. float_of_int n)) -. 1.)

let rms_schedulable_ll tasks =
  total_utilization tasks <= liu_layland_bound (List.length tasks)

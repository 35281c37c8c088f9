(* Seeded request streams for the two service workloads.

   Every draw comes from one Util.Prng seeded by the run's --seed, so a
   seed names its stream exactly.  The program under test only ever
   sees the generated requests. *)

module P = Batch.Protocol
module I = Check.Instance
module Prng = Util.Prng

type item = {
  req : P.request;
  body : int;
      (** requests with equal [body] are the same line up to their id,
          so they share one reference answer *)
  first : bool;  (** first request of its memo key in the stream *)
  golden : string option;  (** expected line from the golden corpus *)
}

(* A staircase curve: areas strictly increase, cycles strictly fall,
   as identification produces them. *)
let curve_points prng ~base ~k =
  let areas = Array.init k (fun _ -> Prng.in_range prng 1 150) in
  Array.sort compare areas;
  let cycles = Array.init k (fun _ -> Prng.in_range prng (base / 3) (base - 1)) in
  Array.sort (fun a b -> compare b a) cycles;
  let pts = ref [] and last_area = ref 0 and last_cycles = ref base in
  Array.iteri
    (fun i a ->
      let area = max a (!last_area + 1) and cyc = min cycles.(i) (!last_cycles - 1) in
      if cyc >= 1 then begin
        pts := { I.area; cycles = cyc } :: !pts;
        last_area := area;
        last_cycles := cyc
      end)
    areas;
  List.rev !pts

(* n tasks whose software utilizations (UUniFast) sum to just above
   1, so selection decides schedulability; periods pairwise distinct
   so RMS priorities are unambiguous. *)
let task_set prng ~n ~points:(lo, hi) =
  let total = 0.95 +. Prng.float prng 0.35 in
  let shares = Check.Gen.uunifast prng ~n ~total in
  let seen = Hashtbl.create 16 in
  List.map
    (fun u ->
      let base = Prng.in_range prng 200 4000 in
      let period = ref (max base (int_of_float (Float.round (float_of_int base /. u)))) in
      while Hashtbl.mem seen !period do incr period done;
      Hashtbl.add seen !period ();
      { I.period = !period; base; points = curve_points prng ~base ~k:(Prng.in_range prng lo hi) })
    shares

let max_area tasks =
  List.fold_left
    (fun acc (t : I.task_spec) ->
      acc + List.fold_left (fun a (p : I.curve_point) -> max a p.area) 0 t.points)
    0 tasks

let empty_dfg = { I.kinds = []; edges = []; live_outs = [] }

let dfg_ops =
  Ir.Op.[| Add; Sub; Mul; And; Or; Xor; Not; Shl; Shr; Cmp; Select; Add; Xor; Shl |]

(* A basic block of n operations: mostly ISE-eligible arithmetic wired
   to recent producers (so deep convex cuts exist), a few constants
   and memory operations, ~15% live-outs. *)
let dfg prng ~n =
  let kinds =
    List.init n (fun i ->
        let r = Prng.int prng 100 in
        if i < 2 || r < 8 then Ir.Op.Const
        else if r < 14 then Ir.Op.Load
        else if r < 17 then Ir.Op.Store
        else Prng.choose prng dfg_ops)
  in
  let edges = ref [] in
  List.iteri
    (fun i kind ->
      let wired = ref [] in
      for _ = 1 to Ir.Op.arity kind do
        if i > 0 then begin
          let src = i - 1 - Prng.int prng (min i 6) in
          if not (List.mem src !wired) then begin
            wired := src :: !wired;
            edges := (src, i) :: !edges
          end
        end
      done)
    kinds;
  let live_outs = List.filter (fun _ -> Prng.int prng 100 < 15) (List.init n Fun.id) in
  { I.kinds; edges = List.rev !edges; live_outs = (n - 1) :: live_outs |> List.sort_uniq compare }

let instance ?(budget = 0) ?(eps = 0.5) ?(dfg = empty_dfg) tasks = { I.tasks; budget; eps; dfg }

let permute prng (i : I.t) =
  let a = Array.of_list i.I.tasks in
  Prng.shuffle prng a;
  { i with I.tasks = Array.to_list a }

let request ~id ?(generator = Ise.Isegen.Exhaustive) op instance =
  { P.id; op; instance; generator }

(* The committed golden corpus, paired with its expected lines. *)
let golden ~dir =
  let lines file =
    In_channel.with_open_text (Filename.concat dir file) In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  List.map2
    (fun case expected ->
      match P.parse_request case with
      | Ok req -> (req, expected)
      | Error msg -> failwith ("golden case does not parse: " ^ msg))
    (lines "cases.jsonl") (lines "expected.jsonl")

(* Unique problems of one stream: (op, generator, instance) triples. *)
type spec = {
  sets : int;  (** task sets, each asked as edf, pareto_exact, pareto_approx *)
  set_tasks : int * int;
  set_points : int * int;
  sweeps : int;  (** extra EDF budgets asked over each of the first sets *)
  small_sets : int;  (** oracle-sized task sets (edf + rms) *)
  dfgs : int;
  dfg_nodes : int * int;
  isegen_every : int;  (** every k-th DFG is also asked with isegen *)
}

(* RMS branch-and-bound is exponential in the task count and its cost
   is heavy-tailed (one 9-task set took 11 s, the median 1 ms), so each
   set is asked as rms over a 4-6 task, 10-15 point set of its own:
   there the slowest of 150 draws took 50 ms.  The problems come out
   in the order a stream first asks them, kinds mixed, so that the
   slowest solves do not all come last. *)
let problems prng spec =
  let ops = [ P.Edf; P.Pareto_exact; P.Pareto_approx ] in
  let sets =
    List.concat
      (List.init spec.sets (fun s ->
           let n = Prng.in_range prng (fst spec.set_tasks) (snd spec.set_tasks) in
           let tasks = task_set prng ~n ~points:spec.set_points in
           let top = max_area tasks in
           let budget () = Prng.in_range prng (top / 8) (top / 2) in
           let eps = 0.1 +. Prng.float prng 0.9 in
           let base = List.map (fun op -> (op, Ise.Isegen.Exhaustive, instance ~budget:(budget ()) ~eps tasks)) ops in
           let rms_tasks = task_set prng ~n:(Prng.in_range prng 4 6) ~points:(10, 15) in
           let rms_budget = Prng.in_range prng (max_area rms_tasks / 8) (max_area rms_tasks / 2) in
           let rms = (P.Rms, Ise.Isegen.Exhaustive, instance ~budget:rms_budget rms_tasks) in
           let sweep =
             if s < spec.sets / 2 then
               List.init spec.sweeps (fun _ -> (P.Edf, Ise.Isegen.Exhaustive, instance ~budget:(budget ()) ~eps tasks))
             else []
           in
           (rms :: base) @ sweep))
  in
  let small =
    List.concat
      (List.init spec.small_sets (fun _ ->
           let tasks = task_set prng ~n:(Prng.in_range prng 2 4) ~points:(2, 5) in
           let budget = Prng.in_range prng 0 (max_area tasks) in
           [ (P.Edf, Ise.Isegen.Exhaustive, instance ~budget tasks);
             (P.Rms, Ise.Isegen.Exhaustive, instance ~budget tasks) ]))
  in
  let curves =
    List.concat
      (List.init spec.dfgs (fun d ->
           let n = Prng.in_range prng (fst spec.dfg_nodes) (snd spec.dfg_nodes) in
           let inst = instance ~dfg:(dfg prng ~n) [] in
           (P.Curve, Ise.Isegen.Exhaustive, inst)
           :: (if d mod spec.isegen_every = 0 then [ (P.Curve, Ise.Isegen.Isegen, inst) ] else [])))
  in
  let all = Array.of_list (sets @ small @ curves) in
  Prng.shuffle prng all;
  all

(* A stream in which every problem is asked [copies op] times and every
   golden case once, in seeded order.  A problem's first request is its
   cold one; each later request repeats its key, a task-set problem
   under a fresh task permutation [permute_pct]% of the time (a new
   line, the same memo key), otherwise verbatim.  The repeat count
   depends on the op alone, so the work in a stream does not depend on
   which problems the seed happens to favour. *)
let stream prng ~prefix ~problems ~copies ~permute_pct ~golden_cases =
  let bodies = Hashtbl.create 256 in
  let body_of key =
    match Hashtbl.find_opt bodies key with
    | Some b -> b
    | None ->
      let b = Hashtbl.length bodies in
      Hashtbl.add bodies key b;
      b
  in
  let slots =
    Array.of_list
      (List.concat_map
         (fun p ->
           let op, _, _ = problems.(p) in
           List.init (copies op) (fun _ -> `Problem p))
         (List.init (Array.length problems) Fun.id)
      @ List.map (fun g -> `Golden g) golden_cases)
  in
  Prng.shuffle prng slots;
  (* The seed draws where each problem's requests fall, but not which
     problem is asked first: the k-th problem of a repeat count to
     appear is always the k-th problem with that count.  So the cold
     solves reach the pool in the same order for every seed; when the
     seed set that order, it decided which heavy solves ran side by
     side, and with it the peak RSS of a pass (84 vs 108 MiB). *)
  let queues = Hashtbl.create 4 in
  Array.iteri
    (fun p (op, _, _) ->
      let c = copies op in
      if not (Hashtbl.mem queues c) then Hashtbl.add queues c (Queue.create ());
      Queue.add p (Hashtbl.find queues c))
    problems;
  let relabel = Hashtbl.create 256 in
  let slots =
    Array.map
      (function
        | `Golden g -> `Golden g
        | `Problem p ->
          (match Hashtbl.find_opt relabel p with
           | Some q -> `Problem q
           | None ->
             let op, _, _ = problems.(p) in
             let q = Queue.pop (Hashtbl.find queues (copies op)) in
             Hashtbl.add relabel p q;
             `Problem q))
      slots
  in
  let asked = Hashtbl.create 256 in
  Array.mapi
    (fun i slot ->
      match slot with
      | `Golden ((req : P.request), expected) ->
        { req; body = body_of (req.P.op, req.P.generator, req.P.instance); first = true; golden = Some expected }
      | `Problem p ->
        let first = not (Hashtbl.mem asked p) in
        Hashtbl.replace asked p ();
        let op, gen, inst = problems.(p) in
        let inst =
          if (not first) && op <> P.Curve && Prng.int prng 100 < permute_pct then permute prng inst else inst
        in
        { req = request ~id:(Printf.sprintf "%s%05d" prefix i) ~generator:gen op inst;
          body = body_of (op, gen, inst); first; golden = None })
    slots

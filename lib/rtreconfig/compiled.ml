type t = {
  periods : int array;
  wcets : int array;
  versions : Model.version array array;
  preemptions : int array;
      (** [p * n + q]: reloads a job of task [p] pays for preemption by
          task [q] of another configuration *)
  reconfig_cost : int;
}

let compile (m : Model.t) =
  let tasks = Array.of_list m.tasks in
  let n = Array.length tasks in
  let periods = Array.map (fun (tk : Model.task) -> tk.period) tasks in
  { periods;
    wcets = Array.map (fun (tk : Model.task) -> tk.wcet) tasks;
    versions = Array.map (fun (tk : Model.task) -> tk.versions) tasks;
    preemptions =
      Array.init (n * n) (fun pq ->
          let p = pq / n and q = pq mod n in
          if periods.(q) < periods.(p) then 2 * Util.Numeric.ceil_div periods.(p) periods.(q)
          else 0);
    reconfig_cost = m.reconfig_cost }

(* Model.reload_cycles: one load at dispatch when another configuration
   exists, plus the preemptions by tasks of other configurations. *)
let reload_cycles t ~config p =
  let own = config.(p) in
  if own < 0 then 0
  else begin
    let n = Array.length t.periods in
    let foreign = ref false and preemptions = ref 0 in
    for q = 0 to n - 1 do
      let c = config.(q) in
      if q <> p && c >= 0 && c <> own then begin
        foreign := true;
        preemptions := !preemptions + t.preemptions.((p * n) + q)
      end
    done;
    if !foreign then t.reconfig_cost * (1 + !preemptions) else 0
  end

let utilization t ~version ~config =
  let u = ref 0. in
  for p = 0 to Array.length t.periods - 1 do
    let wcet =
      t.wcets.(p) - t.versions.(p).(version.(p)).gain + reload_cycles t ~config p
    in
    u := !u +. (float_of_int wcet /. float_of_int t.periods.(p))
  done;
  !u

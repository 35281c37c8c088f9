(** A task set on int indices, built once per solver call.

    Task [p] is the [p]th of [Model.t.tasks]; a placement is two arrays
    over task indices: the chosen [version], and the [config] id of each
    task, [-1] for a task in software.  {!utilization} is the float
    arithmetic of {!Model.utilization}, summed in the same task order,
    so on the named placement that lists every task's version and every
    configured task's id it returns the same bits.  Task names are
    assumed distinct. *)

type t

val compile : Model.t -> t

val utilization : t -> version:int array -> config:int array -> float
(** Σ effective WCET / period, with the worst-case reloads of
    {!Model.reload_cycles}. *)

(** A partitioning problem on int indices, built once per solver call.

    Loop [i] is the [i]th of [Problem.t.loops]; the trace is an [int
    array] of loop indices (activations of names that are not loops of
    the problem never touch the fabric and are dropped).  A placement is
    two arrays over loop indices: the chosen [version], and the
    [config] id of each loop, [-1] for a loop in software.

    {!feasible} and {!net_gain} are the integer arithmetic of
    {!Problem.feasible} and {!Problem.net_gain} without names or
    association lists: on the named placement that lists every loop's
    version and every configured loop's id, they give the same answers.
    Loop names are assumed distinct. *)

type t = private {
  problem : Problem.t;
  names : string array;
  versions : Problem.version array array;
  trace : int array;
  by_name : (string, int) Hashtbl.t;
}

val compile : Problem.t -> t

val index : t -> string -> int
(** Index of a loop name; raises [Not_found]. *)

val feasible : t -> version:int array -> config:int array -> bool
(** Versions in range, a configuration exactly for the hardware loops
    (version > 0), and each configuration's summed area at most
    [max_area].  Configuration ids must be below the number of loops. *)

val reconfigurations : t -> config:int array -> int
(** Fabric reloads when the trace is replayed ({!Ir.Trace.reconfigurations}). *)

val net_gain : t -> version:int array -> config:int array -> int
(** Σ version gains − reconfigurations × [reconfig_cost]. *)

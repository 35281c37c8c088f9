(** Brute-force reference oracles for small instances.

    Every oracle is an independent re-implementation — exhaustive
    enumeration instead of dynamic programming, response-time analysis
    instead of the Bini–Buttazzo point test, cross-product Pareto
    enumeration instead of the DP front — so that a bug shared with the
    production solver cannot mask itself.  All are exponential (or
    pseudo-polynomial with no cleverness) and must only be fed the small
    instances {!Gen} produces; {!combination_count} lets properties skip
    pathological cases.

    The optional [guard] is a hard stop, not a degradation: an anytime
    partial oracle could silently agree with a buggy solver, so an
    exhausted guard raises {!Engine.Guard.Exhausted} (one fuel unit per
    enumerated assignment / option combination) and the calling
    property turns it into a skip. *)

val combination_count : Rt.Task.t list -> int
(** Π curve sizes — the number of assignments the selection oracles
    enumerate (saturates at [max_int] on overflow). *)

val selections :
  ?guard:Engine.Guard.t -> budget:int -> Rt.Task.t list -> Core.Selection.t list
(** Every full assignment within the area budget, in enumeration
    order. *)

val edf_best :
  ?guard:Engine.Guard.t -> budget:int -> Rt.Task.t list -> Core.Selection.t
(** Minimum-utilization in-budget assignment (ties broken towards
    smaller area); the software assignment when nothing else fits. *)

val rms_best :
  ?guard:Engine.Guard.t ->
  budget:int ->
  Rt.Task.t list ->
  Core.Selection.t option
(** Minimum-utilization in-budget assignment that passes
    {!response_time_schedulable}; [None] when no assignment does. *)

val response_time_schedulable : (int * int) list -> bool
(** Exact RMS test by response-time analysis: [(cycles, period)] pairs,
    sorted here by increasing period; task [i]'s response time is the
    least fixpoint of [R = Cᵢ + Σ_{j<i} ⌈R/Pⱼ⌉·Cⱼ], schedulable iff
    every fixpoint is ≤ the period.  Independent of
    {!Rt.Sched.rms_schedulable}'s Bini–Buttazzo recurrence. *)

val pareto_exhaustive :
  ?guard:Engine.Guard.t ->
  base:float ->
  Pareto.Mo_select.entity list ->
  Util.Pareto_front.point list
(** Exact cost/value Pareto front by enumerating the full cross product
    of entity options (a zero option is added per entity, mirroring
    {!Pareto.Mo_select}'s convention) and filtering dominated points. *)

(** The Chapter 3 solvers as they stood before the allocation-free
    kernels: the EDF DP with a row copy per task and per-cell
    recomputation of each point's utilization and offset, and the RMS
    branch-and-bound that re-sorts a task's points at every node and
    rebuilds Theorem 1's scheduling points for every configuration it
    tests.  Not brute-force oracles but the differential references for
    {!Core.Edf_select} and {!Core.Rms_select}, which must return the
    same assignments, float bits included, and the same search
    counters.  They carry none of the production trace or telemetry. *)
module Edf_dp_ref : sig
  val run : budget:int -> Rt.Task.t list -> Core.Selection.t
  val run_sweep : budgets:int list -> Rt.Task.t list -> Core.Selection.t list
end

module Rms_ref : sig
  val run_instrumented :
    guard:Engine.Guard.t ->
    use_bound:bool ->
    fastest_first:bool ->
    budget:int ->
    Rt.Task.t list ->
    Core.Selection.t option * Core.Rms_select.stats
end

(** The Chapter 4 group-knapsack solvers as they stood before the
    allocation-free kernel: a fresh DP table per entity row, scaled
    costs recomputed per cell.  Not a brute-force oracle but the
    differential reference for {!Pareto.Mo_select}, which must return
    identical results, float bits included.  Its guard degrades like
    the production one instead of raising; its [gap] still answers
    [None] at [cost_bound = 0], where the production one solves the
    zero-cost options exactly. *)
module Pareto_ref : sig
  val exact_front_guarded :
    ?guard:Engine.Guard.t ->
    base:float ->
    Pareto.Mo_select.entity list ->
    Util.Pareto_front.point list * Engine.Guard.status

  val gap :
    eps:float ->
    cost_bound:int ->
    value_bound:float ->
    base:float ->
    Pareto.Mo_select.entity list ->
    Util.Pareto_front.point option

  val approx_front :
    eps:float -> base:float -> Pareto.Mo_select.entity list -> Util.Pareto_front.point list

  val solve_at_cost : cost:int -> base:float -> Pareto.Mo_select.entity list -> float
end

(** Exhaustive identification and ISEGEN as they stood before word
    bitsets, the bounded enumeration queue and the ancestor-closure
    hull: string-keyed tables, [List.mem] frontiers, a hull that scans
    every node.  Not brute-force oracles but the differential
    references for {!Ise.Enumerate.connected_full} and
    {!Ise.Isegen.generate}, which must return identical candidate
    lists (order and every field), saturation and guard fuel use.  They
    spend fuel like the production code and carry none of its trace,
    telemetry or saturation logging. *)
module Enumerate_ref : sig
  val connected_full :
    guard:Engine.Guard.t ->
    constraints:Isa.Hw_model.constraints ->
    budget:Ise.Enumerate.budget ->
    ?allowed:Util.Bitset.t ->
    Ir.Dfg.t ->
    Isa.Custom_inst.t list * Ise.Enumerate.saturation option
end

module Isegen_ref : sig
  val generate :
    guard:Engine.Guard.t ->
    constraints:Isa.Hw_model.constraints ->
    params:Ise.Isegen.params ->
    ?allowed:Util.Bitset.t ->
    Ir.Dfg.t ->
    Isa.Custom_inst.t list
end

(** The Chapter 6 partitioning algorithms as they stood before the
    shared knapsack kernel and the index-based evaluation: a fresh DP
    row copy and a cons list per cell, placements scored through
    {!Reconfig.Problem.feasible} and {!Reconfig.Problem.net_gain} over
    association lists, and a string-keyed memo in the exhaustive search.
    The differential references for {!Reconfig.Algorithms}, which must
    return equal placements (list order included). *)
module Reconfig_ref : sig
  val spatial_select :
    loops:Reconfig.Problem.hot_loop list -> area:int -> (string * int) list

  val iterative :
    ?seed:int -> ?imbalances:float list -> Reconfig.Problem.t -> Reconfig.Problem.placement

  val greedy : Reconfig.Problem.t -> Reconfig.Problem.placement

  val exhaustive :
    ?max_partitions:int -> Reconfig.Problem.t -> Reconfig.Problem.placement option
end

(** The Chapter 7 solvers as they stood before the shared knapsack
    kernel: the utilisation knapsack with [reload] called per cell and
    version, and a branch-and-bound that names and evaluates every
    leaf through {!Rtreconfig.Model.utilization}.  The differential
    references for {!Rtreconfig.Solvers}. *)
module Rtreconfig_ref : sig
  val min_utilization_versions :
    tasks:Rtreconfig.Model.task list ->
    area:int ->
    reload:(Rtreconfig.Model.task -> int) ->
    (string * int) list

  val dp : Rtreconfig.Model.t -> Rtreconfig.Model.placement
  val optimal : ?max_nodes:int -> Rtreconfig.Model.t -> Rtreconfig.Model.placement
end

(** MLGP as it stood before the quotient-graph cycle test and the
    cached partition scores: every candidate merge and move ran Kahn's
    algorithm over the whole contracted DFG, and every set was
    evaluated afresh each time it was scored.  The differential
    reference for {!Iterative.Mlgp}, which must emit the same
    instructions in the same order. *)
module Mlgp_ref : sig
  val partition_region :
    ?constraints:Isa.Hw_model.constraints ->
    ?seed:int ->
    ?refine:bool ->
    Ir.Dfg.t ->
    allowed:Util.Bitset.t ->
    Isa.Custom_inst.t list

  val cover_dfg :
    ?constraints:Isa.Hw_model.constraints ->
    ?seed:int ->
    ?refine:bool ->
    Ir.Dfg.t ->
    Isa.Custom_inst.t list
end

(** Optimal customization under EDF scheduling — Algorithm 1 of the
    paper (thesis §3.1.3).

    A pseudo-polynomial dynamic program over the area budget: Uᵢ(A) is
    the minimum total utilization of tasks T₁..Tᵢ spending at most A on
    custom instructions, recursing over each task's configuration curve.
    The area granularity Δ is the GCD of all configuration areas and the
    budget, exactly as in the thesis; complexity O(N · AREA/Δ · max nᵢ).

    Because EDF schedulability is exactly U ≤ 1, minimising utilization
    is complete for schedulability: the returned selection is
    schedulable iff its utilization is ≤ 1. *)

val run : budget:int -> Rt.Task.t list -> Selection.t
(** Minimum-utilization assignment within the budget (always exists —
    the software configuration is free). *)

val run_sweep : budgets:int list -> Rt.Task.t list -> Selection.t list
(** One selection per requested budget, in order, from a single DP
    filled to the largest budget at granularity
    Δ = gcd(budgets ∪ areas).  Because that Δ divides each per-budget
    granularity, every result is bit-identical to the corresponding
    [run ~budget] — a whole budget sweep for the price of one DP (the
    batch service's grouping relies on this; asserted property-based in
    the [batch] suite).  Counts ["edf.sweeps"]. *)

val exhaustive : budget:int -> Rt.Task.t list -> Selection.t
(** Brute-force cross product of all curves (exponential) — test oracle
    for small instances. *)

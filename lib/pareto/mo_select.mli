(** Two-objective selection machinery shared by the intra-task and
    inter-task stages of Chapter 4.

    Both stages are instances of one problem: a list of {e entities}
    (custom-instruction candidates / tasks), each offering a finite set
    of options [{delta; cost}] — choose exactly one option per entity so
    as to trade total cost (silicon area) against total value
    ([base − Σ delta]: workload or utilization).  Provided algorithms:

    - {!exact_front} — pseudo-polynomial DP over the full cost range,
      yielding the exact Pareto curve (thesis §4.2.1's Algorithm DP);
    - {!gap} — the polynomial-time GAP subroutine with the ⌈aᵢⱼ·r/b⌉
      cost transformation (§4.2.1.1);
    - {!approx_front} — the FPTAS of Algorithm 3: a geometric grid over
      the cost range with ratio (1+ε') where ε' = √(1+ε) − 1, one GAP
      call per coordinate, undominated solutions retained.  The result
      ε-covers the exact front with polynomially many points.

    All four share one group-knapsack kernel that allocates nothing per
    entity row; {!approx_front} reuses one DP workspace across its
    coordinates.  {!exact_front_guarded}, {!gap} and {!approx_front}
    each record an [Engine.Trace] span ([pareto.exact], [pareto.gap],
    [pareto.approx]) and add the DP cells they scanned to the
    [pareto.dp_cells] counter, labelled by [solver]. *)

type option_ = {
  delta : float;  (** value reduction when this option is chosen (≥ 0) *)
  cost : int;  (** silicon cost (≥ 0) *)
}

type entity = option_ array
(** Options of one entity.  A zero option [{delta = 0.; cost = 0}] is
    added automatically if absent (not choosing is always possible). *)

val exact_front : base:float -> entity list -> Util.Pareto_front.point list
(** The exact cost/value Pareto curve.  Runtime O(#options · Σmax-cost).
    Subject to the process-wide {!Engine.Guard.default_spec} budget —
    see {!exact_front_guarded} for what an early stop returns. *)

val exact_front_guarded :
  ?guard:Engine.Guard.t ->
  base:float ->
  entity list ->
  Util.Pareto_front.point list * Engine.Guard.status
(** {!exact_front} under an explicit resource guard (default:
    {!Engine.Guard.default}).  The DP spends guard fuel proportional to
    each entity row's width; on exhaustion it stops between entities
    and returns the front of the entities processed so far with status
    [Partial] — every returned point is still an achievable solution
    (the skipped entities take their zero option), but the front may be
    dominated by the exact one. *)

val gap :
  eps:float ->
  cost_bound:int ->
  value_bound:float ->
  base:float ->
  entity list ->
  Util.Pareto_front.point option
(** [gap ~eps ~cost_bound:c ~value_bound:w ...] either returns a solution
    with cost ≤ c and value ≤ w, or [None], which guarantees no solution
    has cost ≤ c/(1+eps) and value ≤ w (the one-sided GAP guarantee).
    At [c = 0] only zero-cost options fit and the answer is exact; a
    negative [c] always answers [None]. *)

val approx_front :
  ?guard:Engine.Guard.t ->
  eps:float ->
  base:float ->
  entity list ->
  Util.Pareto_front.point list
(** ε-approximate Pareto curve; polynomial in the input size and 1/ε.

    Runs under [guard] (default: {!Engine.Guard.default}), read back
    with {!Engine.Guard.status}.  Before each cost coordinate's GAP call
    it spends [1 + r] fuel per entity row, where [r = ⌈n/ε'⌉] is the
    scaled DP's width and [n] the option count.  On exhaustion it stops
    between coordinates and returns the front of the coordinates solved
    so far (always including the all-zero selection) — every point is
    achievable, but the ε-cover is no longer guaranteed.  Raises
    [Invalid_argument] when [eps] is not positive or so small that [r]
    is not a valid array length. *)

val approx_eps_supported : eps:float -> entity list -> bool
(** [eps] is positive and large enough that {!approx_front}'s DP width
    [r] is a valid array length — the test behind [approx_front]'s own
    [Invalid_argument] on [eps].  Request parsers use it to refuse such
    an [eps] as a per-request error. *)

val solve_at_cost : cost:int -> base:float -> entity list -> float
(** Minimum achievable value within a cost budget (exact DP restricted to
    one budget) — a convenience for single-budget queries. *)

(** Random-but-valid workload generators, all driven by the splittable
    seeded {!Util.Prng} so that every draw replays from a seed.

    Instances are kept deliberately small: the differential properties
    compare the production solvers against brute-force oracles whose
    cost is exponential in the instance size. *)

val uunifast : Util.Prng.t -> n:int -> total:float -> float list
(** UUniFast (Bini–Buttazzo): [n] task utilizations, each positive,
    summing to [total], uniformly distributed over the simplex.
    Requires [n >= 1] and [total > 0]. *)

val task_set : Util.Prng.t -> Batch.Instance.task_spec list
(** 1–4 periodic tasks with random configuration curves; periods follow
    UUniFast utilization sampling around a target total in [0.4, 1.6]
    and are made pairwise distinct so RMS priorities are unambiguous. *)

val budget_for : Util.Prng.t -> Batch.Instance.task_spec list -> int
(** A shared area budget in [0, Σ max-areas + 10] — spanning "nothing
    fits" through "everything fits". *)

val dfg_spec : Util.Prng.t -> Batch.Instance.dfg_spec
(** A random DAG of 1–14 operations (including ISE-ineligible loads,
    stores and branches), forward edges respecting operand arities, and
    random live-out marks — the shape {!Ise.Enumerate} consumes. *)

val instance : Util.Prng.t -> Batch.Instance.t
(** A full instance: independent child generators ({!Util.Prng.split})
    drive each component.  Always {!Batch.Instance.valid}. *)

(** Greedy counterexample minimisation.

    Given a failing instance and a predicate that re-runs the failing
    property, repeatedly applies structural simplifications — drop a
    task, drop a curve point, shrink the budget, halve periods and
    cycle counts, drop DFG nodes and edges, round eps — keeping a
    transformation whenever the smaller instance still fails.  The
    result is a local minimum: no single simplification preserves the
    failure. *)

val candidates : Batch.Instance.t -> Batch.Instance.t list
(** All one-step simplifications of an instance, most aggressive first,
    restricted to {!Batch.Instance.valid} results that are strictly smaller
    under {!Batch.Instance.size} (eps rounding, which does not change the
    size, is also offered). *)

val shrink :
  ?max_steps:int ->
  still_fails:(Batch.Instance.t -> bool) ->
  Batch.Instance.t ->
  Batch.Instance.t * int
(** [shrink ~still_fails inst] greedily minimises [inst]; returns the
    shrunk instance and the number of accepted steps ([max_steps]
    defaults to 500). *)

(** The differential property suite: every solver pair checked against
    a brute-force oracle or an independent re-implementation on random
    instances.

    Suites: [select] (Chapter 3 DP / branch-and-bound / heuristics vs
    exhaustive enumeration, and the DP and branch-and-bound vs their
    kept references in {!Oracle.Edf_dp_ref} and {!Oracle.Rms_ref}), [sched] (Bini–Buttazzo exact RMS test vs
    response-time analysis), [pareto] (exact DP front vs cross-product
    enumeration, FPTAS ε-cover, the group-knapsack kernel vs its
    pre-rewrite reference), [curve] (identification pipeline
    invariants on random DFGs), [reconfig] (the Chapter 6-7 solvers
    vs their kept references in {!Oracle.Reconfig_ref} and
    {!Oracle.Rtreconfig_ref}, the index-based evaluators vs
    [Problem]/[Model]), [iterative] (MLGP vs its kept reference in
    {!Oracle.Mlgp_ref}), [engine] (cache round-trip and corruption
    tolerance, parallel ≡ sequential). *)

type outcome =
  | Pass
  | Fail of string  (** counterexample description *)
  | Skip of string  (** instance out of the property's domain *)

type t = {
  name : string;
  suite : string;
  run : Batch.Instance.t -> outcome;
}

val all : t list
(** Every property, grouped by suite. *)

val suites : string list
(** Distinct suite names, in declaration order. *)

val find : string -> t option
(** Look a property up by name in {!all}. *)

val in_suites : string list -> t list
(** Properties whose suite is in the list ([[]] means all). *)

val edf_against :
  name:string -> (budget:int -> Rt.Task.t list -> Core.Selection.t) -> t
(** The EDF-vs-oracle differential property with the solver under test
    swapped out — the hook the self-test uses to inject a deliberately
    broken solver and prove the harness catches and shrinks it. *)

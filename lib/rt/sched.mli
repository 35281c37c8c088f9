(** Schedulability analysis for EDF and RMS.

    EDF uses the exact utilization bound (U ≤ 1).  RMS uses the exact
    test of thesis Theorem 1 (the Bini–Buttazzo recurrence over the
    Sᵢ(t) point sets), which is necessary and sufficient — plus the
    classical Liu–Layland sufficient bound for the conservative checks
    the DVFS study needs. *)

val edf_schedulable : (int * int) list -> bool
(** [(cycles, period)] pairs; true iff Σ cycles/period ≤ 1. *)

val total_utilization : (int * int) list -> float

val rms_schedulable_prefix : (int * int) array -> int -> bool
(** [rms_schedulable_prefix tasks i] — tasks must be sorted by
    increasing period; checks that task [i] meets its deadline given
    interference from tasks [0..i] only (the Lᵢ ≤ 1 condition).  Lower
    priority tasks are irrelevant, which is what makes the
    branch-and-bound traversal order sound. *)

val level_points : int array -> int -> int array
(** [level_points periods i] — Theorem 1's scheduling points Sᵢ(Pᵢ) for
    task [i], ascending, given periods sorted increasingly.  They depend
    only on [periods.(0..i)], so a search over execution times computes
    them once. *)

val level_fits :
  points:int array -> periods:int array -> cycles:int array -> int -> bool
(** [level_fits ~points ~periods ~cycles i] — the Lᵢ ≤ 1 test of
    {!rms_schedulable_prefix} over precomputed [points]
    ([level_points periods i]); reads [periods.(0..i)] and
    [cycles.(0..i)] only, and allocates nothing. *)

val rms_schedulable : (int * int) list -> bool
(** Exact RMS test for the whole set (max Lᵢ ≤ 1 after sorting by
    period). *)

val liu_layland_bound : int -> float
(** n (2^{1/n} − 1). *)

val rms_schedulable_ll : (int * int) list -> bool
(** Sufficient-only Liu–Layland test (used by the conservative static
    voltage-scaling path, as in the thesis's energy study). *)

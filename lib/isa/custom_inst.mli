(** Custom instructions: convex, I/O-bounded subgraphs of a basic block's
    DFG, together with their evaluated software cost, hardware latency,
    area and per-execution gain (thesis §2.3). *)

type t = private {
  nodes : Util.Bitset.t;  (** member operations *)
  size : int;  (** number of operations *)
  sw_cycles : int;  (** software cost of the replaced operations *)
  hw_cycles : int;  (** latency as one custom instruction *)
  area : int;  (** deci-adders *)
  inputs : int;
  outputs : int;
}

val gain : t -> int
(** Cycles saved by one execution: [sw_cycles - hw_cycles] (may be ≤ 0
    for patterns not worth implementing). *)

type rejection =
  | Invalid_operation  (** contains a memory access or control transfer *)
  | Not_convex
  | Too_many_inputs of int
  | Too_many_outputs of int
  | Empty

val check :
  ?constraints:Hw_model.constraints -> Ir.Dfg.t -> Util.Bitset.t ->
  (t, rejection) result
(** Validate a node set against the architectural constraints and
    evaluate its metrics.  [Ok] exactly when {!feasible}; a rejection
    names the first failed test in the order [Empty],
    [Invalid_operation], [Not_convex], [Too_many_inputs],
    [Too_many_outputs], with the full port count. *)

val make :
  ?constraints:Hw_model.constraints -> Ir.Dfg.t -> Util.Bitset.t -> t
(** Like {!check} but raises [Invalid_argument] on rejection. *)

val make_unchecked : Ir.Dfg.t -> Util.Bitset.t -> t
(** Evaluate metrics without enforcing constraints (used by generators
    that maintain the invariants themselves, e.g. MLGP coarse vertices
    during refinement). *)

val admissible : ?constraints:Hw_model.constraints -> Ir.Dfg.t -> t -> bool
(** [admissible dfg (make_unchecked dfg nodes)] holds exactly when
    [check dfg nodes] is [Ok] — for callers that evaluate every set
    anyway and must not evaluate it twice. *)

val feasible :
  ?constraints:Hw_model.constraints -> Ir.Dfg.t -> Util.Bitset.t -> bool
(** [Result.is_ok (check dfg nodes)] without evaluating the set or
    naming the rejection: the port bounds first, each count stopping at
    its bound, then emptiness, validity and convexity.  Allocates
    nothing (beyond the [Some] of a passed [constraints]), so a search
    can test every set it explores and evaluate only those that pass. *)

val evaluate_with : Hw_model.backend -> Ir.Dfg.t -> t -> t
(** Re-cost an instruction under another hardware backend: [hw_cycles]
    and [area] are recomputed from the backend's tables, while the node
    set, software cost and port counts are unchanged.
    [evaluate_with Hw_model.uniform] is the identity. *)

val overlaps : t -> t -> bool
(** The two instructions share at least one operation (same DFG). *)

val pp : Format.formatter -> t -> unit
val pp_rejection : Format.formatter -> rejection -> unit

(** Cooperative resource guards: bounded-effort execution for the
    worst-case-exponential solvers.

    A guard carries a work budget — an optional wall-clock deadline
    and/or an optional {e fuel} allowance (abstract work units, e.g.
    search-tree nodes) — and the solver spends it by calling {!tick} at
    poll points of its own choosing.  When the budget runs out, {!tick}
    starts returning [false] and the solver unwinds, returning its best
    incumbent so far tagged {!Partial} instead of {!Exact}.  Everything
    is cooperative and single-threaded: no signals, no timer threads,
    no cancellation races.

    Fuel budgets are deterministic — the same instance with the same
    fuel stops at the same node, so a [Partial] result is bit-for-bit
    reproducible.  Deadlines are not (they depend on machine speed);
    use fuel when reproducibility matters and deadlines when latency
    does.  The first exhaustion of a guard counts ["guard.exhausted"]
    in [Obs.Metrics].

    The ["guard.exhaust"] {!Fault} point can force a {e bounded} guard
    to exhaust at any tick, so the degradation paths are testable
    without a pathological instance.  Guards with no limits never
    exhaust, injected or not — [create ()] is an ironclad way to demand
    an exact run. *)

type reason =
  | Deadline of float  (** the configured deadline, seconds *)
  | Fuel of int  (** the configured fuel allowance *)
  | Injected  (** forced by the ["guard.exhaust"] fault point *)

type status = Exact | Partial of reason
(** [Exact]: the solver ran to completion and its result carries its
    usual optimality/completeness guarantee.  [Partial]: the budget ran
    out first; the result is the best incumbent found — feasible, but
    not proven optimal (a property [lib/check] verifies). *)

exception Exhausted of reason
(** Raised by {!check_exn} for solvers (the brute-force oracles) whose
    partial results would be meaningless. *)

type spec = { deadline_s : float option; fuel : int option }

val no_limit : spec

val default_spec : unit -> spec
val set_default_spec : spec -> unit
(** Process-wide budget applied by solvers whose callers did not pass an
    explicit guard — how the CLI's [--deadline] / [--max-nodes] flags
    reach solvers buried inside experiment drivers.  Defaults to
    {!no_limit}. *)

type t
(** One guard instance.  Not shared across domains — each worker makes
    its own. *)

val create : ?deadline_s:float -> ?fuel:int -> unit -> t
(** A fresh guard; omitted limits are unlimited.  The deadline clock
    starts now.  Raises [Invalid_argument] on non-positive limits. *)

val of_spec : spec -> t

val default : unit -> t
(** [of_spec (default_spec ())]. *)

val tick : ?cost:int -> t -> bool
(** Spend [cost] fuel (default 1) and report whether to keep going:
    [false] means the guard is exhausted (now or previously) and the
    solver should unwind with its incumbent.  Wall-clock is polled only
    every 64 fuel units, so ticking in an inner loop is cheap. *)

val check_exn : ?cost:int -> t -> unit
(** {!tick}, raising {!Exhausted} instead of returning [false]. *)

val exhausted : t -> reason option

val status : t -> status
(** {!Exact} iff the guard never exhausted. *)

val used : t -> int
(** Fuel spent so far. *)

val merge_status : status -> status -> status
(** [Partial] dominates — for results combined from several guarded
    phases. *)

val string_of_reason : reason -> string
val string_of_status : status -> string
val pp_status : Format.formatter -> status -> unit

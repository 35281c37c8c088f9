(** Drives the property suites: generate → run → on failure shrink and
    write a replayable repro file.

    Determinism: each property gets its own child generator derived
    from the run seed and the property name, so adding or filtering
    properties never perturbs another property's random stream, and
    [--seed N] replays the exact same instances. *)

type config = {
  seed : int;
  budget : int;  (** random cases per property *)
  suites : string list;  (** suite filter; [[]] means every suite *)
  repro_dir : string;  (** where failure repro files are written *)
}

val default : config
(** seed 42, budget 200, all suites, repros in the working directory. *)

type failure = {
  prop : string;
  suite : string;
  case : int;  (** 0-based index of the failing case *)
  message : string;
  shrunk : Batch.Instance.t;
  shrink_steps : int;
  repro_file : string option;  (** [None] if writing the file failed *)
}

type summary = {
  cases : int;
  passed : int;
  skipped : int;
  failures : failure list;
}

val ok : summary -> bool

val run : ?fmt:Format.formatter -> ?props:Prop.t list -> config -> summary
(** Run every selected property for [config.budget] cases each,
    stopping a property at its first failure (which is then shrunk and
    persisted).  Progress and failures go to [fmt] (default a null
    formatter) and to {!Engine.Log}; counters land in
    [Obs.Metrics] ([check.cases], [check.failures]).  [props]
    overrides the suite selection (the self-test injects a broken
    solver this way). *)

val replay : ?fmt:Format.formatter -> ?props:Prop.t list -> string -> (bool, string) result
(** Re-run a repro file's property on its recorded instance: [Ok true]
    when the property now passes, [Ok false] when the failure
    reproduces, [Error] when the file is unreadable or names an unknown
    property. *)

val fault_selftest : ?fmt:Format.formatter -> unit -> (string, string) result
(** Drive every wired {!Engine.Fault} injection point (cache.write,
    cache.truncate, cache.read, parallel.worker, guard.exhaust) at
    probability 1 against a throwaway cache directory, asserting that
    each fires (the ["fault.injected"] telemetry increases) and that the
    surrounding resilience code survives it with the documented
    degradation.  [Ok] summarises the points exercised; [Error] names
    the first unsurvived failure.  Restores the fault, cache and log
    configuration on exit. *)

val selftest :
  ?fmt:Format.formatter -> seed:int -> repro_dir:string -> unit -> (string, string) result
(** End-to-end harness validation: inject an off-by-one bug into the
    EDF DP's budget, prove the differential property catches it, shrink
    the counterexample, write its repro file and confirm {!replay}
    reproduces the failure.  [Ok] describes the catch; [Error] means
    the harness failed to detect the injected bug. *)

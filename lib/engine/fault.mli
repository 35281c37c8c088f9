(** Seeded fault injection for the execution engine.

    Failure-handling code is only trustworthy if its paths actually run,
    so the engine's I/O and worker layers carry named {e injection
    points} — [Fault.inject "cache.write"] and friends — that are inert
    until a spec is {!configure}d (or the [ISECUSTOM_FAULT_SPEC]
    environment variable is set, which CI's fault job uses).  A firing
    point raises {!Injected}, which the surrounding resilience code must
    survive exactly as it would the real failure (ENOSPC, a crashing
    worker, a torn write).

    Points wired in as of this writing:
    - ["cache.write"] — raised before a cache entry is written
      (exercises the degrade-to-in-memory path);
    - ["cache.read"] — raised while loading an entry (reads as
      corruption, forcing a recompute);
    - ["cache.truncate"] — does not raise; makes the write tear
      mid-entry so the {e next read} sees a truncated file;
    - ["parallel.worker"] — raised inside a worker's per-item
      computation ({!Parallel.Pool.map_result} retries / isolates it);
    - ["guard.exhaust"] — forces a {!Guard.t} to report exhaustion.

    Draws come from a seeded splitmix64 stream behind a mutex, so a
    single-threaded run with a given seed fires deterministically;
    under concurrent workers the draw order (not the rate) depends on
    scheduling. *)

exception Injected of string
(** Raised by a firing injection point, carrying the point name. *)

type point_spec = {
  prob : float;  (** chance a visit to the point fires, in [0, 1] *)
  cap : int option;  (** stop firing after this many fires ([None] = forever) *)
}

type spec = { seed : int; points : (string * point_spec) list }

val none : spec
(** Seed 0, no points — configuring it turns injection off. *)

val parse : string -> (spec, string) result
(** Parse the spec grammar: comma-separated clauses, each [seed=INT] or
    [POINT=RATE] where [RATE] is a probability with an optional [xN]
    fire cap — e.g. ["seed=7,cache.write=0.1,parallel.worker=1x2"]
    (inject into every cache write with probability 0.1, and crash a
    worker item deterministically, but at most twice). *)

val configure : spec -> unit
(** Install a spec, resetting the PRNG to its seed and all fire counts
    to zero. *)

val disable : unit -> unit
(** Turn injection off (equivalent to [configure none]). *)

val active : unit -> bool
(** Whether any injection point is configured.  Cheap (one load); test
    properties that assert non-degraded behaviour use it to skip. *)

val fires : string -> bool
(** Draw for the named point: [true] if it fires now.  For failure modes
    that are not exceptions (e.g. a torn write).  A fire counts against
    the point's cap, bumps the [Obs.Metrics] counter
    ["fault.injected"] under a [point] label and logs at debug
    level. *)

val inject : string -> unit
(** [fires] turned into a crash: raise {!Injected} when the point
    fires, no-op otherwise. *)

val fired : string -> int
(** How many times the point has fired since the last {!configure}. *)

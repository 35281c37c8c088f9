(** Epoch reads without epoch barriers.

    [let s0 = Snapshot.take () in ...work...; let d = Snapshot.delta
    ~before:s0 ~after:(Snapshot.take ())] attributes every sample to
    exactly one epoch, with no quiescence requirement — the pattern
    the CLI and bench use instead of [Metrics.reset] bracketing.  A
    snapshot is an immutable deep copy; taking
    one costs one pass over the registry under its mutex. *)

type t

val take : unit -> t
(** Consistent deep copy of the live registry. *)

val delta : before:t -> after:t -> t
(** Per-cell difference: counters and histogram buckets/count/sum
    subtract; gauges keep the [after] level (they are levels, not
    flows); histogram min/max come from [after] — exact when [before]
    had no samples, conservative otherwise.  Families or cells born
    after [before] pass through unchanged. *)

val families : t -> Metrics.family list

(** {1 Point reads} *)

val counter : ?labels:Metrics.labels -> t -> string -> float
(** Cell value, or the sum across all cells when [labels] is omitted;
    [0.] for missing families. *)

val gauge : ?labels:Metrics.labels -> t -> string -> float

val hist_data : ?labels:Metrics.labels -> t -> string -> Metrics.histdata option

val hist_stats : ?labels:Metrics.labels -> t -> string -> Metrics.hstats option

(** {1 Emission}

    The JSON shapes are the schema of [--metrics-out] files and the
    bench's metric files; the tables are what [--stats] and
    [isecustom stats] print.  All three read counter families with
    their label cells summed and histogram families with their cells
    merged. *)

val telemetry_json : t -> Util.Json.t
(** [{"counters": {...ints...}, "timers": {...seconds...}}] over the
    snapshot's counter families; seconds-unit families
    ({!Metrics.inc_s}, {!Metrics.time_s}) are the timers.  Empty halves
    are [{}]; {!Util.Json.to_string} prints a non-finite timer as
    [null]. *)

val histograms_json : t -> Util.Json.t
(** [{name: {count,sum,min,max,p50,p90,p99}}] over the snapshot's
    histogram families with at least one sample. *)

val pp : Format.formatter -> t -> unit
(** A ["--- telemetry ---"] table (counters, then timers in seconds)
    and a ["--- histograms ---"] table (count, p50, p90, p99, max).
    Families that did not move are left out — over a delta, that is
    everything recorded only before the baseline — and an empty table
    prints ["no telemetry recorded"] / ["no histograms recorded"]. *)

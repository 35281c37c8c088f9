(** Process-global registry of labeled metric families.

    A {e family} is a named metric of one {!kind}; a {e cell} is one
    time series within it, keyed by a label set such as
    [[("solver", "edf")]].  Label order never matters — sets are
    canonicalised on every access.  The whole registry sits behind one
    mutex, so families are safe to write from any domain; hot paths
    touch it once per algorithm step, and [dune build @perf-gates]
    enforces < 5% total overhead on the curve suite.

    Writes are infallible by design: using a name with a conflicting
    kind drops the sample and bumps the [obs.kind_clash] counter
    rather than raising into the instrumented code.

    For epoch-safe reads under concurrency, do not [reset] — take a
    {!Snapshot.t} before and after the region of interest and read the
    delta. *)

type labels = (string * string) list

type kind = Counter | Gauge | Hist

val canon_labels : labels -> labels
(** Sort a label set into its canonical (key-ordered) form — the form
    [dump] reports cells under. *)

(** {1 Writing} *)

val declare : ?help:string -> ?unit_s:bool -> kind -> string -> unit
(** Register a family up front so it is exposed (with help text) even
    before its first sample.  Idempotent; a later [declare] may fill
    in missing help text but never changes an existing family's kind.
    [unit_s] marks the family as measuring seconds, which suffixes the
    Prometheus name with [_seconds]. *)

val inc : ?labels:labels -> ?by:float -> string -> unit
(** Add [by] (default 1) to a counter cell, creating family and cell
    on first use.  [by = 0.] is a no-op that creates neither. *)

val inc_s : ?labels:labels -> string -> float -> unit
(** Add a duration in seconds to a counter cell; the family is marked
    [unit_s] when created here. *)

val set : ?labels:labels -> string -> float -> unit
(** Set a gauge cell to an absolute value. *)

val observe : ?labels:labels -> string -> float -> unit
(** Record a sample into a histogram cell.  Non-finite samples are
    dropped and counted under [histogram.dropped]. *)

val time : ?labels:labels -> string -> (unit -> 'a) -> 'a
(** Run the thunk and [observe] its wall-clock duration, even on
    exception. *)

val time_s : ?labels:labels -> string -> (unit -> 'a) -> 'a
(** Run the thunk and add its wall-clock duration to a seconds-unit
    counter ([inc_s]), even on exception — a cumulative timer, which
    [Snapshot.telemetry_json] lists under ["timers"]. *)

val set_enabled : bool -> unit
(** Kill-switch: when disabled, writes return without taking the
    registry lock.  Reads and [declare] stay live.  Used by the
    [@perf-gates] overhead floor and perfbench to measure
    observability overhead. *)

val enabled : unit -> bool

(** {1 Reading} *)

val value : ?labels:labels -> string -> float option
(** Exact counter/gauge cell value, or [None] if the cell (or family)
    does not exist. *)

val sum : string -> float
(** Sum of every counter/gauge cell in the family, across all label
    sets; [0.] for missing families.  This is how unlabeled reads
    (e.g. [cache.hits] across its [namespace] cells) see family-wide
    totals. *)

type histdata = {
  hbuckets : int array;  (** geometric buckets, ratio 2^(1/8) *)
  hcount : int;
  hsum : float;
  hmin : float;
  hmax : float;
}

type hstats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val hist_data : ?labels:labels -> string -> histdata option
(** Copy of a histogram cell; with [labels] omitted, the merge of
    every cell in the family. *)

val hist_stats : ?labels:labels -> string -> hstats option
(** [None] until the first sample lands. *)

val hist_quantile : ?labels:labels -> string -> float -> float option
(** Quantile estimate, clamped to the observed [min, max] range. *)

(** {1 Bulk access} *)

type value = C of float | G of float | H of histdata

type family = {
  fam_name : string;
  fam_kind : kind;
  fam_help : string option;
  fam_unit_s : bool;
  fam_cells : (labels * value) list;  (** labels canonically sorted *)
}

val dump : unit -> family list
(** Deep-copied, name-sorted view of the whole registry — the input to
    {!Snapshot} and {!Prometheus}. *)

val reset : ?kind:kind -> unit -> unit
(** Drop every family (or only those of [kind]).  Not an epoch
    barrier: samples written concurrently land in whichever epoch the
    mutex orders them into — prefer {!Snapshot} deltas.  Retained for
    test isolation. *)

(** {1 Histogram geometry}

    Exposed for {!Prometheus} bucket ladders and tests. *)

val sub_buckets : int
val bucket_offset : int
val n_buckets : int
val bucket_of : float -> int
val value_of : int -> float
val empty_hist : unit -> histdata
val merge_hist : histdata -> histdata -> histdata
val stats_of_hist : histdata -> hstats
val hist_quantile_of : histdata -> float -> float

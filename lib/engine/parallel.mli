(** A persistent work-stealing domain pool (OCaml 5 [Domain]s).

    {!Pool.create} spawns its worker domains {e once}; every subsequent
    parallel operation — {!Pool.map}, {!Pool.map_result}, {!Pool.submit}
    — reuses them, so domain spawn/teardown is amortised across a whole
    CLI or daemon lifetime instead of being paid per call.  Each worker
    owns a deque: it pushes work it creates onto its own deque and, when
    that runs dry, steals from the others — so fine-grained work items
    (per-block candidate enumeration, per-budget curve selects, batch
    groups) balance across domains regardless of which call produced
    them.

    Results are always returned in input order and are bit-identical to
    the sequential path — workers communicate only through disjoint
    output slots, so scheduling can change {e when} an item is computed,
    never {e what}.  A pool with [jobs = 1] (the single-core default)
    spawns no domain and runs everything inline.

    Nested use is safe: a work item running on a pool worker may itself
    call {!Pool.map}/{!Pool.submit}/{!Pool.await} on the same pool.
    Awaiting callers {e help}: they execute queued work items instead of
    blocking, so the pool can never deadlock on its own work.

    Metrics: ["pool.spawned"] (domains ever spawned), ["pool.reused"]
    (parallel operations dispatched onto already-resident domains),
    ["pool.items"] (work items executed), ["pool.steals"] (items claimed
    from another worker's deque); histogram ["pool.steal_wait_s"] (time
    a worker hunted before a successful steal).  Per-item telemetry of
    the crash-isolated path keeps PR 4's names: ["parallel.retried"],
    ["parallel.recovered"], ["parallel.item_failed"]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — the
    {!Pool.create} default. *)

type error = {
  attempts : int;  (** how many times the item was tried *)
  message : string;  (** [Printexc.to_string] of the last failure *)
}

module Pool : sig
  type t
  (** A handle on a set of resident worker domains.  Create one per
      process (CLI invocation, daemon), thread it through the layers,
      and {!shutdown} it when the process is done. *)

  val create : ?jobs:int -> unit -> t
  (** [create ~jobs ()] spawns [jobs - 1] worker domains (the calling
      domain is the [jobs]-th worker whenever it awaits).  [jobs]
      defaults to {!default_jobs} and is clamped to [1 .. 126] (the
      runtime's domain ceiling).  Raises [Invalid_argument] on
      [jobs < 1]. *)

  val jobs : t -> int
  (** The pool's parallelism width (as clamped by {!create}). *)

  val shutdown : t -> unit
  (** Stop and join the worker domains.  Idempotent: later calls (from
      any thread) return immediately.  Any parallel operation on a shut
      down pool raises [Invalid_argument].  Must not race an in-flight
      {!map}/{!await} on the same pool. *)

  val with_pool : ?jobs:int -> (t -> 'a) -> 'a
  (** [create], run, and {!shutdown} (also on exception). *)

  type 'a future

  val submit : t -> (unit -> 'a) -> 'a future
  (** Queue one computation on the pool.  On a [jobs = 1] pool the thunk
      runs inline before [submit] returns.  {!Trace} spans opened inside
      the thunk are parented to the span enclosing the [submit]. *)

  val await : 'a future -> 'a
  (** Wait for a future, executing other queued pool work while it is
      pending ({e helping} — this is what makes nested submission
      deadlock-free).  Re-raises the thunk's exception, if any.
      [await] may be called from any domain, any number of times. *)

  val map : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
  (** [map pool f xs] = [List.map f xs], computed by the pool's workers
      stealing chunks of [chunk] consecutive items (default 1).  Results
      come back in input order.  If any [f] raises, the first exception
      is re-raised in the caller once the operation has drained; a
      shared cancellation flag, polled before every item, stops the
      other workers from starting further items in the meantime.  [f]
      must be safe to run concurrently with itself.  The
      ["parallel.worker"] {!Fault} point, when armed, crashes items here
      like any other exception — use {!map_result} for the batch to
      survive it.  A [jobs = 1] pool (or a list of at most one element)
      degrades to [List.map] with no queuing and no fault point. *)

  val map_result :
    ?chunk:int -> ?attempts:int -> t -> ('a -> 'b) -> 'a list ->
    ('b, error) result list
  (** Crash-isolated {!map}: every item's outcome is captured in its own
      slot (in input order), so one raising item degrades to an [Error]
      instead of aborting the batch — the other items all still run.
      Each item is tried up to [attempts] times (default 2, i.e. one
      retry), which absorbs transient failures; a deterministic failure
      is reported with its attempt count and rendered exception. *)

  val map_reduce :
    ?chunk:int -> t -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> 'c ->
    'a list -> 'c
  (** Parallel map followed by a sequential in-order fold, so the result
      is deterministic for any reducer. *)

  val isolate : ?attempts:int -> ('a -> 'b) -> 'a -> ('b, error) result
  (** Run one item under the pool's per-work-item discipline — the
      ["parallel.worker"] fault point, bounded retry, outcome captured
      as a [result] — on the calling domain, with no pool involved.
      This is the primitive {!map_result} applies per item; callers that
      need crash isolation around inherently sequential steps (the
      experiment sweep, batch-group recovery) use it directly. *)
end

(** The resident solver daemon: the batch service promoted from a
    one-shot JSONL run to a long-lived server over warm shared state.

    A background accept domain ({!Obs.Netio} listeners — Unix socket
    and/or loopback TCP) takes persistent connections; each connection
    gets a reader and a writer thread speaking the {!Batch.Protocol}
    JSONL codec: the reader parses request lines and hands them to the
    shared scheduler, the writer sends response lines back {e in
    request order}.  All connections share one {!Engine.Memo} (spilling
    to the persistent {!Engine.Cache}) and one process-wide
    {!Engine.Parallel.Pool}, so every request warms state for every
    later request on any connection — the amortization a fleet of
    clients is pointed at.

    {b Admission control and backpressure.}  At most [max_inflight]
    admitted requests exist at once, across all connections.  A request
    arriving beyond that bound is shed immediately with the explicit
    wire response [{"id": ..., "error": "overloaded"}] — the client is
    told to back off ({!Client} retries with exponential backoff) and
    the daemon never builds an unbounded queue.  Each request class
    (protocol op) may carry an {!Engine.Guard.spec} deadline/fuel
    budget applied to its solver run; classes without a spec inherit
    the process default, which keeps the golden-corpus byte-identity
    bar: with default specs, a warm daemon answer equals the cold
    [batch] answer equals the [--sequential] answer, byte for byte.

    {b Drain.}  {!stop} flips the daemon into draining: the accept
    loop exits immediately (waker, no poll interval), [healthy]
    becomes false (the /healthz surface turns 503), connection readers
    stop consuming new lines, in-flight requests finish and their
    responses are written, then connections close and [stop] returns.

    {b Hostile conditions.}  The read side is bounded in space and
    time: a request line larger than [max_request_bytes] (complete or
    still accumulating — the reader never buffers past the cap) is
    answered [{"error": "oversized: ..."}] and the connection reaped; a
    connection silent past [idle_timeout_s], or trickling one request
    line slower than [line_timeout_s] (slow-loris), is reaped with an
    explicit error line the same way.  Reaping one connection frees
    both its systhreads and disturbs nothing else.  A {e watchdog}
    thread supervises the rest: it flags in-flight requests stuck past
    their class deadline plus a grace ([wedge_grace_s]), force-closes
    lingering sockets when a drain is stuck past [drain_grace_s],
    surfaces hard accept-loop errors (EMFILE — the accept loop itself
    retries under exponential backoff, see {!Obs.Netio.accept_loop}),
    revalidates the shared memo against the cache generation stamp
    (so a sibling process's [cache clear] empties the warm tables,
    {!Engine.Memo.revalidate}) and periodically reaps temp-file litter
    from writers SIGKILLed mid-cache-write
    ({!Engine.Cache.sweep_stale_tmp}).  [start] also ignores SIGPIPE
    process-wide: a client vanishing mid-write must cost one [false]
    from [write_all], not the daemon.

    Wire responses that are not solver results:
    - [{"id": I, "error": "overloaded"}] — shed by admission control;
    - [{"id": I, "error": "internal: ..."}] — the request crashed even
      after the pool's bounded retry (fault injection lands here; the
      connection itself survives);
    - [{"error": "parse: ..."}] — the line was not a valid request;
    - [{"error": "oversized: ..."} | {"error": "idle: ..."} |
      {"error": "timeout: ..."}] — hygiene reap, connection closes
      after the line.

    Metrics: ["daemon.requests"]{op,outcome} with outcome one of
    [ok]/[overloaded]/[failed]/[parse_error]/[oversized],
    ["daemon.inflight"] and ["daemon.conn_active"] gauges,
    ["daemon.connections"] counter, ["daemon.queue_wait_s"] histogram
    (admission to execution start), ["daemon.conn_reaped"]{reason} for
    hygiene reaps, and the watchdog family:
    ["daemon.watchdog_wedged"]{op}, ["daemon.watchdog_stuck_drain"],
    ["daemon.watchdog_accept_errors"]{error},
    ["daemon.watchdog_oldest_s"] gauge.  Flight events:
    ["daemon.overloaded"] (Warn) per admission reject,
    ["daemon.conn_failed"] (Warn) on a connection torn down by an
    exception, ["daemon.conn_reaped"] (Warn) per hygiene reap,
    ["daemon.watchdog_wedged"] / ["daemon.watchdog_stuck_drain"] /
    ["daemon.accept_error"] (Warn) from the watchdog and accept loop,
    ["daemon.drained"] on shutdown.

    The ["daemon.stall"] {!Engine.Fault} point delays request
    execution 0.3s so tests can stage a wedged request without a
    pathological instance. *)

type t

val start :
  ?host:string ->
  ?port:int ->
  ?unix_path:string ->
  ?max_inflight:int ->
  ?classes:(Batch.Protocol.op * Engine.Guard.spec) list ->
  ?pool:Engine.Parallel.Pool.t ->
  ?memo:string Engine.Memo.t ->
  ?max_request_bytes:int ->
  ?idle_timeout_s:float option ->
  ?line_timeout_s:float option ->
  ?wedge_grace_s:float ->
  ?drain_grace_s:float ->
  ?watchdog_interval_s:float ->
  unit ->
  t
(** Bind and spawn the accept domain plus the watchdog thread.  At
    least one of [port] / [unix_path] is required ([Invalid_argument]
    otherwise); [port] may be [0] for an ephemeral port ({!port} reads
    it back).  [max_inflight] defaults to 64 (must be >= 1).
    [classes] maps request ops to per-class guard budgets; unlisted
    ops run under the process default spec.  Without [pool] requests
    compute on the connection threads (still correct, no extra
    parallelism); without [memo] nothing is shared between requests.

    Hygiene knobs: [max_request_bytes] caps one request line (default
    1 MiB); [idle_timeout_s] (default 10 min) and [line_timeout_s]
    (default 60s) reap silent and slow-loris connections — pass [None]
    to disable either.  [wedge_grace_s] (default 30s) is the slack
    past a request's class deadline before the watchdog flags it;
    [drain_grace_s] (default 30s) how long a drain may linger before
    its remaining sockets are kicked; [watchdog_interval_s] (default
    0.25s) the supervision tick.  Raises [Unix.Unix_error] if binding
    fails and [Invalid_argument] on non-positive knobs. *)

val port : t -> int option
(** The bound TCP port, if a TCP listener was requested. *)

val healthy : t -> bool
(** [true] until {!stop} begins draining — wire this to
    {!Obs.Serve.start}'s [healthz] so load balancers see the 503 while
    in-flight work finishes. *)

val draining : t -> bool

val served : t -> int
(** Requests answered with a solver result so far. *)

val stop : t -> unit
(** Graceful drain: stop accepting (immediately), let in-flight
    requests finish and their responses flush, close every connection
    and listener, unlink the Unix socket path.  Idempotent; blocks
    until the drain is complete. *)

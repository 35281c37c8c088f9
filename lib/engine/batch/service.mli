(** The batching solver service.

    [run] answers a stream of requests in four phases:

    + {b prepare} — canonicalize every request ({!Canon}) and derive
      its memo key and sweep-group key ({!Protocol.prepare});
    + {b dedup} — requests repeating an earlier key in the stream are
      answered by that key's result;
    + {b group} — unique requests sharing a group key are a budget
      sweep over one problem; an EDF group is answered by a single
      shared DP ({!Core.Edf_select.run_sweep});
    + {b execute} — groups run as work items on the caller's persistent
      {!Engine.Parallel.Pool} (or sequentially with the same per-item
      crash isolation when no pool is passed), probing and filling the
      {!Engine.Memo} table; a crashed group is recomputed inline
      (["batch.group_recovered"]), so worker faults degrade to
      sequential execution, never to a lost answer.

    Responses come back in request order.  Both [run] and the
    one-at-a-time reference {!respond} serialise result payloads
    through {!Util.Json.to_string} before rendering, so for any
    request stream the two produce byte-identical lines, cold or
    memo-warm — the central property of the [batch] suite.

    Metrics: ["batch.requests"], ["batch.unique"],
    ["batch.dedup_hits"], ["batch.groups"], ["batch.sweep_budgets"],
    ["batch.group_recovered"]; histograms ["batch.run_s"],
    ["batch.group_s"]; spans ["batch.run"] / ["batch.group"]. *)

type stats = {
  requests : int;
  unique : int;  (** requests left after dedup *)
  groups : int;
  dedup_hits : int;  (** answered by an earlier request in the stream *)
  memo_hits : int;  (** answered by the memo table (earlier run / spill) *)
  swept : int;  (** EDF requests answered by a shared sweep DP *)
}

val hit_rate : stats -> float
(** [(dedup_hits + memo_hits) / requests]; [0.] on an empty stream. *)

val pp_stats : Format.formatter -> stats -> unit

val respond : Protocol.request -> string
(** Solve one request cold, no sharing — the sequential reference the
    batch path is differentially tested against. *)

val answer :
  ?memo:string Engine.Memo.t -> ?spec:Engine.Guard.spec -> Protocol.request -> string
(** Solve one request against a shared memo — the resident daemon's
    per-request path.  A memo hit replays the stored payload; a miss
    computes (under [spec] if given, else the process default guard),
    stores, and renders.  Every arm serialises through
    {!Util.Json.to_string} before rendering, so [answer] is
    byte-identical to {!respond} for any [Exact]-status result,
    warm or cold. *)

val run :
  ?pool:Engine.Parallel.Pool.t ->
  ?memo:string Engine.Memo.t ->
  Protocol.request list ->
  string list * stats
(** Answer a stream.  Without [pool] the groups run sequentially (still
    crash-isolated per group); [memo] defaults to none (dedup and
    sweep-grouping still apply). *)

(** Differential properties for the batch layer (suite ["batch"]).

    They exercise the batch service, which sits below [check] in the
    library graph, so they are kept apart from {!Prop.all}; the CLI
    composes the two lists when driving {!Runner.run}.

    - [batch_matches_sequential] — on a derived request stream (budget
      sweeps, exact duplicates, task-permuted and DFG-renumbered
      copies, all five ops) the batched responses are byte-identical to
      one-at-a-time {!Batch.Service.respond};
    - [batch_memo_warm_identical] — a second run over a warm memo
      returns the same bytes and answers every unique request from the
      table;
    - [batch_hash_canonical] — memo keys are invariant under task
      reordering and DFG renumbering, and distinguish budgets and ops;
    - [batch_survives_faults] — under active fault injection (the
      [make faults] run; skipped otherwise) the service still answers
      every request with a parseable response. *)

val all : Prop.t list

val stream_of : Batch.Instance.t -> Batch.Protocol.request list
(** The derived request stream the properties batch (exposed for the
    unit tests and the bench). *)

val renumber_dfg : Batch.Instance.dfg_spec -> Batch.Instance.dfg_spec
(** A different valid topological numbering of the same graph (picks
    the highest-index ready node instead of the lowest) — the
    presentation change canonicalization must erase. *)

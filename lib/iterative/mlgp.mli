(** MLGP — multi-level graph partitioning for on-the-fly custom
    instruction generation (thesis §5.2.3).

    Unlike enumerate-then-select, MLGP partitions a region's data-flow
    graph directly into a few {e large} legal custom instructions:

    - {e coarsening}: repeatedly merge adjacent clusters when the union
      stays a legal custom instruction (valid, convex, within I/O
      ports), choosing the merge with the best gain/area ratio;
    - {e initial partitioning}: every coarsest cluster is one custom
      instruction (no artificial k);
    - {e uncoarsening}: project back level by level, greedily moving
      boundary clusters between neighbouring partitions when the move
      keeps both partitions legal and improves the summed gain/area
      ratio (Algorithm 5).

    Runtime is near-linear in the region size, which is the property
    Chapter 5 exploits to customize multi-megacycle task sets in
    seconds. *)

val partition_region :
  ?constraints:Isa.Hw_model.constraints ->
  ?seed:int ->
  ?refine:bool ->
  Ir.Dfg.t ->
  allowed:Util.Bitset.t ->
  Isa.Custom_inst.t list
(** Partition the [allowed] nodes (all must be ISE-valid) of one region
    into disjoint legal custom instructions; only partitions with
    strictly positive gain are returned, best gain first.  The returned
    set is jointly schedulable (no mutual dependences between
    instructions — see {!Ise.Codegen.sanitize}).  Each run records the
    spans and timers [mlgp.partition], [mlgp.coarsen] and [mlgp.refine],
    and adds the merge and move candidates it tried to the counters
    [mlgp.merge_candidates] and [mlgp.move_candidates]. *)

val cover_dfg :
  ?constraints:Isa.Hw_model.constraints ->
  ?seed:int ->
  ?refine:bool ->
  Ir.Dfg.t ->
  Isa.Custom_inst.t list
(** Run {!partition_region} over every region of a block's DFG.
    [refine] (default true) enables the uncoarsening refinement passes —
    exposed so the ablation benchmark can quantify their contribution. *)

(** Structural canonicalization of solver instances.

    Two requests that differ only in presentation — task order, DFG node
    numbering, curve-point order — describe the same problem and must
    land on the same memo entry.  [instance] rewrites a spec into a
    canonical form:

    - curve points of each task sorted by (area, cycles);
    - tasks sorted by (period, base, points), with the original
      positions recorded in a permutation so per-task results can be
      projected back into request order;
    - DFG nodes renumbered by Weisfeiler–Leman colour refinement with
      individualization: nodes get colours from (operation, arity,
      liveness, neighbour-colour multisets), then a canonical
      topological order repeatedly picks the minimum-colour ready node
      and re-refines — any valid renumbering of the same graph yields
      the same canonical graph (asserted property-based in the [batch]
      suite; WL-equivalent-but-non-isomorphic ties are the usual
      theoretical caveat and do not arise for these labelled DAGs).

    Canonicalization preserves {!Instance.valid}. *)

val instance : Instance.t -> Instance.t * int array
(** Canonical form plus the task permutation: [perm.(i)] is the
    canonical position of the request's task [i].  The permutation of
    an already-canonical instance is the identity. *)

val dfg : Instance.dfg_spec -> Instance.dfg_spec
(** Canonicalize just the DFG (exposed for the hashing tests). *)

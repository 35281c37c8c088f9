(** Data-flow graphs of basic blocks.

    A DFG is a directed acyclic graph whose nodes are primitive
    operations and whose edges are data dependences (thesis §2.2).  Nodes
    are dense integer identifiers in [0, node_count).  An operand of a
    node that has no in-edge is an implicit {e live-in} (a register value
    produced outside the block); a node marked live-out (or with no
    successors) produces a value observed outside the block.

    These conventions drive the input/output operand counting used by the
    custom-instruction architectural constraints. *)

type t

type node = int

(** {1 Construction} *)

module Builder : sig
  type dfg := t
  type t

  val create : unit -> t

  val add : t -> Op.kind -> node
  (** Append a node with no operand edges yet. *)

  val add_with : t -> Op.kind -> node list -> node
  (** [add_with b kind operands] appends a node and one edge from each
      operand.  The number of operands must not exceed the kind's arity;
      missing operands become implicit live-ins. *)

  val edge : t -> node -> node -> unit
  (** [edge b src dst] adds a data dependence; [src] must have been
      created before [dst] (this enforces acyclicity by construction). *)

  val mark_live_out : t -> node -> unit
  (** Declare that the node's value escapes the block even if it has
      successors inside it. *)

  val finish : t -> dfg
  (** Freeze the builder.  Raises [Invalid_argument] if any node has more
      in-edges than its arity. *)
end

(** {1 Observation} *)

val node_count : t -> int
val kind : t -> node -> Op.kind
val preds : t -> node -> node list
val succs : t -> node -> node list
val live_out : t -> node -> bool
(** True when the node's value is observed outside the block (explicitly
    marked, or it has no successors). *)

val topo_order : t -> node array
(** Every edge goes from an earlier to a later position. *)

val nodes : t -> node list
val valid_node : t -> node -> bool
(** The node's operation may be part of a custom instruction. *)

val sw_cycles_total : t -> int
(** Software cost of one execution of the whole block. *)

(** {1 Node-set queries}

    Sets are {!Util.Bitset.t} values of capacity [node_count]. *)

val sw_cycles_of_set : t -> Util.Bitset.t -> int

val input_count : t -> Util.Bitset.t -> int
(** Number of input operands of the induced subgraph: distinct external
    producer nodes feeding the set, plus implicit live-in operands of
    member nodes. *)

val output_count : t -> Util.Bitset.t -> int
(** Number of member nodes whose value is consumed outside the set or is
    live-out. *)

val ports_within : t -> max_inputs:int -> max_outputs:int -> Util.Bitset.t -> bool
(** [input_count t set <= max_inputs && output_count t set <= max_outputs],
    each count stopping as soon as it passes its bound.  Allocates
    nothing. *)

val is_convex : t -> Util.Bitset.t -> bool
(** No path leaves the set and re-enters it (thesis §5.2.1). *)

val is_connected : t -> Util.Bitset.t -> bool
(** The induced subgraph is weakly connected (empty and singleton sets
    are connected). *)

val all_valid : t -> Util.Bitset.t -> bool
(** Every member operation is ISE-eligible. *)

val critical_path : t -> delay:(Op.kind -> float) -> Util.Bitset.t -> float
(** Longest weighted path through the induced subgraph, weights on
    nodes. *)

val reachable_from : t -> node -> Util.Bitset.t
(** All nodes reachable by one or more edges (cached; do not mutate). *)

val ancestors_of : t -> node -> Util.Bitset.t
(** All nodes that reach the node by one or more edges (cached with
    {!reachable_from}, built on the first call of either; do not
    mutate). *)

val pp_stats : Format.formatter -> t -> unit

(** One self-contained solver instance: the input of a batch request
    and of a differential property case.

    One instance carries everything any solver may need — a periodic
    task set with configuration curves, an area budget, an approximation
    parameter and a DFG — so that a single value can be requested,
    generated, shrunk, serialised to a repro file and replayed without
    knowing which solver consumes which part.

    The specs are plain data (no abstract library types) so the shrinker
    can edit them structurally and the repro codec can round-trip them
    exactly; {!tasks} and {!dfg} materialise the library values on
    demand. *)

type curve_point = { area : int; cycles : int }

type task_spec = {
  period : int;
  base : int;  (** software-only cycles *)
  points : curve_point list;  (** custom configurations beyond software *)
}

type dfg_spec = {
  kinds : Ir.Op.kind list;  (** node operations, ids are list positions *)
  edges : (int * int) list;  (** data dependences, src < dst *)
  live_outs : int list;  (** nodes whose value escapes the block *)
}

type t = {
  tasks : task_spec list;
  budget : int;  (** shared silicon budget, deci-adders *)
  eps : float;  (** approximation parameter for the FPTAS properties *)
  dfg : dfg_spec;
}

val valid : t -> bool
(** The specs satisfy every constructor precondition ({!tasks} and
    {!dfg} will not raise): positive periods and bases, no configuration
    slower than software, in-range DAG edges respecting operand arities,
    non-negative budget, finite positive eps. *)

val tasks : t -> Rt.Task.t list
(** Materialise the task set (names [t0], [t1], ...). *)

val dfg : t -> Ir.Dfg.t
(** Materialise the data-flow graph. *)

val size : t -> int
(** Structural size the shrinker minimises: counts tasks, curve points,
    DFG nodes and edges, plus the magnitudes of periods, cycle counts,
    areas and the budget — so halving a parameter is also progress. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 JSON schema}

    The one instance schema of batch requests and repro files:
    {v
    {"budget": 12, "eps": 0.5,
     "tasks": [{"period": 100, "base": 40, "points": [{"area": 5, "cycles": 30}]}],
     "dfg": {"kinds": ["add", "mul"], "edges": [[0, 1]], "live_outs": [1]}}
    v}
    Memo keys hash [Util.Json.to_string (to_json i)], so these bytes
    must not change. *)

val to_json : t -> Util.Json.t

val of_json : Util.Json.t -> t
(** Inverse of {!to_json}.  Raises {!Util.Json.Parse_error}; does not
    check {!valid}. *)

val instance_of_json : string -> (t, string) result
(** Parse, decode and validate one instance object. *)

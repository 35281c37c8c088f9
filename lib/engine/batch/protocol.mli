(** The batch wire protocol: JSONL requests and responses.

    One request per line:
    {v
    {"id": "q1", "op": "edf", "instance": { ...Instance.to_json schema... }}
    v}
    [op] is one of [edf], [rms], [pareto_exact], [pareto_approx],
    [curve].  One response line per request, in request order:
    {v
    {"id": "q1", "op": "edf", "key": "edf-2f1c...", "status": "exact", ...}
    v}
    Result fields per op: [edf]/[rms] carry [utilization], [area] and
    [assignment] (one [{area, cycles}] per task, {e in request task
    order}); an infeasible [rms] carries [feasible: false] instead;
    [pareto_exact]/[pareto_approx] carry [points] ([{cost, value}]);
    [curve] carries [base] and [points] ([{area, cycles}]).
    [status] is ["exact"] or ["partial"] per {!Engine.Guard.status}. *)

type op = Edf | Rms | Pareto_exact | Pareto_approx | Curve

val op_name : op -> string
val op_of_name : string -> op option

type request = {
  id : string;
  op : op;
  instance : Check.Instance.t;
  generator : Ise.Isegen.choice;
      (** candidate generator for [curve] requests; ignored (and
          normalised to [Exhaustive] in keys and on the wire) for every
          other op.  Absent on the wire ⇔ [Exhaustive], so pre-generator
          corpora parse and re-serialise unchanged. *)
}

(** A request after canonicalization and key derivation — what the
    service schedules. *)
type prepared = {
  req : request;
  canonical : Check.Instance.t;  (** {!Canon.instance} of the spec *)
  perm : int array;  (** request task [i] is canonical task [perm.(i)] *)
  key : string;
      (** dedup/memo key: ["<op>[+<generator>]-<hash>"], hashing only
          the instance fields the op consumes — an [edf] request and a
          [curve] request never alias, and two [edf] requests differing
          only in [eps] or the DFG do.  The generator tag appears only
          for non-exhaustive [curve] requests, so legacy keys are
          unchanged. *)
  group : string;
      (** like [key] with the budget blanked: requests sharing a group
          are a budget sweep over one problem *)
}

val prepare : request -> prepared

val entities_of : Check.Instance.t -> Pareto.Mo_select.entity list
(** The inter-task Pareto view of an instance: one entity per task,
    one option per curve point (delta = cycles saved, cost = area). *)

val parse_request : string -> (request, string) result
(** Parse one JSONL line; [Error] carries the parse or validation
    failure, including a [pareto_approx] [eps] too small for
    {!Pareto.Mo_select.approx_front} to run. *)

val request_line : request -> string
(** Serialise a request to its JSONL line ([parse_request] inverts
    it). *)

val render_response : prepared -> payload:Check.Repro.json -> string
(** The response line: [id]/[op]/[key] followed by the payload's
    fields, with any [assignment] array projected from canonical task
    order back to request order through [perm]. *)

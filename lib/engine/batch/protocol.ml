module J = Util.Json

type op = Edf | Rms | Pareto_exact | Pareto_approx | Curve

let op_name = function
  | Edf -> "edf"
  | Rms -> "rms"
  | Pareto_exact -> "pareto_exact"
  | Pareto_approx -> "pareto_approx"
  | Curve -> "curve"

let all_ops = [ Edf; Rms; Pareto_exact; Pareto_approx; Curve ]

let op_of_name n = List.find_opt (fun op -> op_name op = n) all_ops

type request = {
  id : string;
  op : op;
  instance : Instance.t;
  generator : Ise.Isegen.choice;
}

(* Only curve solving consults the generator; normalising it away on the
   other ops keeps their keys (and the golden corpus) unchanged. *)
let generator_of req =
  match req.op with Curve -> req.generator | _ -> Ise.Isegen.Exhaustive

type prepared = {
  req : request;
  canonical : Instance.t;
  perm : int array;
  key : string;
  group : string;
}

let empty_dfg = { Instance.kinds = []; edges = []; live_outs = [] }

(* Blank the instance fields the op ignores, so e.g. two edf requests
   differing only in eps share a key. *)
let trim op (i : Instance.t) =
  match op with
  | Edf | Rms -> { i with Instance.eps = 1.0; dfg = empty_dfg }
  | Pareto_exact -> { i with Instance.budget = 0; eps = 1.0; dfg = empty_dfg }
  | Pareto_approx -> { i with Instance.budget = 0; dfg = empty_dfg }
  | Curve ->
    { i with Instance.tasks = []; budget = 0; eps = 1.0 }

let prepare req =
  let canonical, perm = Canon.instance req.instance in
  let gen_tag =
    match generator_of req with
    | Ise.Isegen.Exhaustive -> ""
    | g -> "+" ^ Ise.Isegen.choice_to_string g
  in
  let key_of i = op_name req.op ^ gen_tag ^ "-" ^ Shash.of_instance i in
  { req;
    canonical;
    perm;
    key = key_of (trim req.op canonical);
    group = key_of { (trim req.op canonical) with Instance.budget = 0 } }

(* The inter-task workload view (as in Check.Prop): one entity per
   task, delta = cycles saved, cost = area. *)
let entities_of (i : Instance.t) =
  List.map
    (fun (ts : Instance.task_spec) ->
      List.map
        (fun (p : Instance.curve_point) ->
          { Pareto.Mo_select.delta = float_of_int (ts.base - p.cycles);
            cost = p.area })
        ts.points
      |> Array.of_list)
    i.Instance.tasks

let parse_request line =
  match J.parse line with
  | exception J.Parse_error msg -> Error msg
  | j ->
    (match
       let id = J.as_string (J.field j "id") in
       let opn = J.as_string (J.field j "op") in
       (id, opn, Instance.of_json (J.field j "instance"))
     with
     | exception J.Parse_error msg -> Error msg
     | id, opn, instance ->
       let field_opt j name =
         match j with
         | J.Obj fields -> List.assoc_opt name fields
         | _ -> None
       in
       let generator =
         match field_opt j "generator" with
         | None -> Ok Ise.Isegen.Exhaustive
         | Some g ->
           (match J.as_string g with
            | exception J.Parse_error msg -> Error msg
            | name ->
              (match Ise.Isegen.choice_of_string name with
               | Some c -> Ok c
               | None -> Error (Printf.sprintf "unknown generator %S" name)))
       in
       (match op_of_name opn, generator with
        | None, _ -> Error (Printf.sprintf "unknown op %S" opn)
        | _, Error msg -> Error msg
        | Some op, Ok generator ->
          if not (Instance.valid instance) then
            Error "instance violates a constructor precondition"
          else if
            op = Pareto_approx
            && not
                 (Pareto.Mo_select.approx_eps_supported ~eps:instance.Instance.eps
                    (entities_of instance))
          then
            Error
              (Printf.sprintf "eps %g is too small: the approximation table would not fit"
                 instance.Instance.eps)
          else Ok { id; op; instance; generator }))

let request_line req =
  (* emitted only when it matters, so pre-generator corpora round-trip
     byte-identically *)
  let generator =
    match generator_of req with
    | Ise.Isegen.Exhaustive -> []
    | g -> [ ("generator", J.Str (Ise.Isegen.choice_to_string g)) ]
  in
  J.to_string
    (J.Obj
       ([ ("id", J.Str req.id);
          ("op", J.Str (op_name req.op));
          ("instance", Instance.to_json req.instance) ]
       @ generator))

let reproject perm = function
  | J.Arr entries when List.length entries = Array.length perm ->
    let arr = Array.of_list entries in
    J.Arr (List.init (Array.length perm) (fun i -> arr.(perm.(i))))
  | v -> v

let render_response p ~payload =
  let fields = match payload with J.Obj fs -> fs | v -> [ ("result", v) ] in
  let fields =
    List.map
      (fun (k, v) -> if k = "assignment" then (k, reproject p.perm v) else (k, v))
      fields
  in
  J.to_string
    (J.Obj
       (("id", J.Str p.req.id)
       :: ("op", J.Str (op_name p.req.op))
       :: ("key", J.Str p.key)
       :: fields))

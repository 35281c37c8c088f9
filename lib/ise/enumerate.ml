module Bitset = Util.Bitset

type budget = { max_size : int; max_explored : int; max_candidates : int }

let default_budget = { max_size = 14; max_explored = 60_000; max_candidates = 4_000 }
let small_budget = { max_size = 8; max_explored = 6_000; max_candidates = 400 }

(* Valid neighbours (preds and succs) of the members, excluding members
   and nodes outside [allowed], most recently discovered first.  [mark]
   is an all-clear scratch set of the DFG's capacity, left clear. *)
let frontier dfg allowed ~mark set =
  let out = ref [] in
  let consider v =
    if
      Ir.Dfg.valid_node dfg v
      && (not (Bitset.mem set v))
      && Bitset.mem allowed v
      && not (Bitset.mem mark v)
    then begin
      Bitset.set mark v;
      out := v :: !out
    end
  in
  Bitset.iter
    (fun v ->
      List.iter consider (Ir.Dfg.preds dfg v);
      List.iter consider (Ir.Dfg.succs dfg v))
    set;
  List.iter (Bitset.clear mark) !out;
  !out

type saturation = Cap_candidates | Cap_explored

let saturation_reason = function
  | Cap_candidates -> "max_candidates"
  | Cap_explored -> "max_explored"

(* Warn once per reason per process, then drop to Debug: hot curve
   sweeps saturate on most blocks and must not flood stderr. *)
let warned : (string, unit) Hashtbl.t = Hashtbl.create 2
let warned_lock = Mutex.create ()

let report_saturation budget sat ~explored ~emitted =
  let reason = saturation_reason sat in
  Obs.Metrics.inc "enumerate.cap_saturated";
  Obs.Metrics.inc ~labels:[ ("reason", reason) ] "enumerate.cap_saturated";
  Obs.Flight.record ~severity:Obs.Flight.Warn "enumerate.cap_saturated"
    [ ("reason", reason);
      ("explored", string_of_int explored);
      ("emitted", string_of_int emitted) ];
  let first =
    Mutex.lock warned_lock;
    let f = not (Hashtbl.mem warned reason) in
    if f then Hashtbl.add warned reason ();
    Mutex.unlock warned_lock;
    f
  in
  let msg =
    Printf.sprintf
      "enumeration saturated its %s cap (explored %d, emitted %d, budget \
       %d/%d): candidate pool is truncated — consider --generator isegen"
      reason explored emitted budget.max_explored budget.max_candidates
  in
  if first then Engine.Log.warn "%s" msg else Engine.Log.debug "%s" msg

let connected_full ?guard ?(constraints = Isa.Hw_model.default_constraints)
    ?(budget = default_budget) ?allowed dfg =
  let guard =
    match guard with Some g -> g | None -> Engine.Guard.default ()
  in
  let n = Ir.Dfg.node_count dfg in
  Engine.Trace.with_span "enumerate.connected"
    ~attrs:[ ("nodes", string_of_int n) ]
  @@ fun () ->
  let allowed =
    match allowed with
    | Some a -> a
    | None -> Bitset.of_list n (List.init n (fun i -> i))
  in
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let results = ref [] in
  let emitted = ref 0 in
  let explored = ref 0 in
  (* [explored + Queue.length queue] never decreases, so once it reaches
     [max_explored] no set queued from then on can ever be popped: such
     sets are dropped instead of queued, and the first drop stops all
     further growing.  [dropped] stands in for the never-popped sets in
     the saturation verdict, so results, order and verdict are those of
     the unbounded queue. *)
  let dropped = ref false in
  (* [key] is unseen; [grow] builds its set *)
  let offer key grow =
    if !explored + Queue.length queue >= budget.max_explored then dropped := true
    else begin
      Hashtbl.add seen key ();
      Queue.push (grow ()) queue
    end
  in
  for v = 0 to n - 1 do
    if Ir.Dfg.valid_node dfg v && Bitset.mem allowed v then begin
      let set = Bitset.of_list n [ v ] in
      offer (Bitset.to_key set) (fun () -> set)
    end
  done;
  let mark = Bitset.create n in
  (* one fuel unit per expansion — the same granularity as
     [budget.max_explored], but shared across calls when the caller
     passes one guard for a whole sweep *)
  while
    (not (Queue.is_empty queue))
    && !explored < budget.max_explored
    && !emitted < budget.max_candidates
    && Engine.Guard.tick guard
  do
    let set = Queue.pop queue in
    incr explored;
    (match Isa.Custom_inst.check ~constraints dfg set with
     | Ok ci when Isa.Custom_inst.gain ci > 0 ->
       incr emitted;
       results := ci :: !results
     | Ok _ | Error _ -> ());
    if (not !dropped) && Bitset.cardinal set < budget.max_size then
      List.iter
        (fun v ->
          if not !dropped then begin
            (* probe with [v] set in place; copy only an unseen set *)
            Bitset.set set v;
            let key = Bitset.to_key set in
            Bitset.clear set v;
            if not (Hashtbl.mem seen key) then
              offer key (fun () ->
                  let grown = Bitset.copy set in
                  Bitset.set grown v;
                  grown)
          end)
        (frontier dfg allowed ~mark set)
  done;
  Obs.Metrics.inc ~by:(float_of_int !explored) "enumerate.explored";
  Obs.Metrics.inc ~by:(float_of_int !emitted) "enumerate.candidates";
  Obs.Metrics.observe "enumerate.candidates_per_block"
    (float_of_int !emitted);
  let saturation =
    if !emitted >= budget.max_candidates then Some Cap_candidates
    else if
      ((not (Queue.is_empty queue)) || !dropped) && !explored >= budget.max_explored
    then Some Cap_explored
    else None
  in
  Option.iter
    (fun sat -> report_saturation budget sat ~explored:!explored ~emitted:!emitted)
    saturation;
  (List.rev !results, saturation)

let connected ?guard ?constraints ?budget ?allowed dfg =
  fst (connected_full ?guard ?constraints ?budget ?allowed dfg)

let max_miso ?(constraints = Isa.Hw_model.default_constraints) dfg =
  let n = Ir.Dfg.node_count dfg in
  Engine.Trace.with_span "enumerate.max_miso"
    ~attrs:[ ("nodes", string_of_int n) ]
  @@ fun () ->
  let patterns = ref [] in
  let seen = Hashtbl.create 64 in
  for sink = 0 to n - 1 do
    if Ir.Dfg.valid_node dfg sink then begin
      let set = Bitset.of_list n [ sink ] in
      (* Add a parent only when all of its consumers are already inside,
         so the pattern keeps a single output; stop growing through
         invalid nodes or past the input-port limit. *)
      let rec grow () =
        let added = ref false in
        Bitset.iter
          (fun v ->
            List.iter
              (fun p ->
                if
                  Ir.Dfg.valid_node dfg p
                  && (not (Bitset.mem set p))
                  && (not (Ir.Dfg.live_out dfg p))
                  && List.for_all (fun s -> Bitset.mem set s) (Ir.Dfg.succs dfg p)
                then begin
                  Bitset.set set p;
                  if Ir.Dfg.input_count dfg set > constraints.Isa.Hw_model.max_inputs
                  then Bitset.clear set p
                  else added := true
                end)
              (Ir.Dfg.preds dfg v))
          set;
        if !added then grow ()
      in
      grow ();
      let key = Bitset.to_key set in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        match Isa.Custom_inst.check ~constraints dfg set with
        | Ok ci when Isa.Custom_inst.gain ci > 0 -> patterns := ci :: !patterns
        | Ok _ | Error _ -> ()
      end
    end
  done;
  List.rev !patterns

let best_single_cut ?guard ?constraints ?(budget = default_budget) ~allowed dfg =
  let candidates = connected ?guard ?constraints ~budget ~allowed dfg in
  List.fold_left
    (fun best ci ->
      match best with
      | None -> Some ci
      | Some b ->
        if Isa.Custom_inst.gain ci > Isa.Custom_inst.gain b then Some ci else best)
    None candidates

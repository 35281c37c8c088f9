module Bitset = Util.Bitset

type budget = { max_size : int; max_explored : int; max_candidates : int }

let default_budget = { max_size = 14; max_explored = 60_000; max_candidates = 4_000 }
let small_budget = { max_size = 8; max_explored = 6_000; max_candidates = 400 }

(* Each usable node's usable neighbours (valid and in [allowed]): its
   predecessors, then its successors, as the DFG lists them. *)
let usable_neighbours dfg allowed =
  let usable v = Ir.Dfg.valid_node dfg v && Bitset.mem allowed v in
  Array.init (Ir.Dfg.node_count dfg) (fun u ->
      if usable u then
        Array.of_list
          (List.filter usable (Ir.Dfg.preds dfg u @ Ir.Dfg.succs dfg u))
      else [||])

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
  let nbrs = usable_neighbours dfg allowed in
  (* Every set ever queued is in [store], in queue order, and the queue
     is the index range [explored, length store): popping is loading
     set [explored], and the store doubles as the seen-set table. *)
  let store = Bitset.Store.create n in
  let set = Bitset.create n in
  let results = ref [] in
  let emitted = ref 0 in
  let explored = ref 0 in
  (* [length store] never decreases, so once it reaches [max_explored]
     no set stored from then on can ever be popped: such sets are
     dropped instead of stored, and the first drop stops all further
     growing.  [dropped] stands in for the never-popped sets in the
     saturation verdict, so results, order and verdict are those of the
     unbounded queue. *)
  let dropped = ref false in
  let offer v =
    if Bitset.Store.length store < budget.max_explored then
      ignore (Bitset.Store.add_with store set v : bool)
    else if not (Bitset.Store.mem_with store set v) then dropped := true
  in
  for v = 0 to n - 1 do
    if Ir.Dfg.valid_node dfg v && Bitset.mem allowed v then offer v
  done;
  let feasible = Isa.Custom_inst.feasible ~constraints dfg in
  (* the frontier of the popped set: its members' usable neighbours
     outside it, once each, in discovery order; [mark] is left clear *)
  let frontier = Array.make n 0 and mark = Bitset.create n in
  (* one fuel unit per expansion — the same granularity as
     [budget.max_explored], but shared across calls when the caller
     passes one guard for a whole sweep *)
  while
    Bitset.Store.length store > !explored
    && !explored < budget.max_explored
    && !emitted < budget.max_candidates
    && Engine.Guard.tick guard
  do
    Bitset.Store.load store !explored set;
    incr explored;
    (* [set] is reloaded on the next pop: an emitted instruction gets
       its own copy *)
    if feasible set then begin
      let ci = Isa.Custom_inst.make_unchecked dfg (Bitset.copy set) in
      if Isa.Custom_inst.gain ci > 0 then begin
        incr emitted;
        results := ci :: !results
      end
    end;
    if (not !dropped) && Bitset.cardinal set < budget.max_size then begin
      let found = ref 0 in
      let u = ref (Bitset.next set 0) in
      while !u < n do
        let ns = nbrs.(!u) in
        for j = 0 to Array.length ns - 1 do
          let v = ns.(j) in
          if not (Bitset.mem set v || Bitset.mem mark v) then begin
            Bitset.set mark v;
            frontier.(!found) <- v;
            incr found
          end
        done;
        u := Bitset.next set (!u + 1)
      done;
      (* most recently discovered first *)
      for j = !found - 1 downto 0 do
        let v = frontier.(j) in
        Bitset.clear mark v;
        if not !dropped then offer v
      done
    end
  done;
  Obs.Metrics.inc ~by:(float_of_int !explored) "enumerate.explored";
  Obs.Metrics.inc ~by:(float_of_int !emitted) "enumerate.candidates";
  Obs.Metrics.observe "enumerate.candidates_per_block"
    (float_of_int !emitted);
  let saturation =
    if !emitted >= budget.max_candidates then Some Cap_candidates
    else if
      (Bitset.Store.length store > !explored || !dropped)
      && !explored >= budget.max_explored
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

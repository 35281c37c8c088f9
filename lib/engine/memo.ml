type 'a shard = { lock : Mutex.t; table : (string, 'a) Hashtbl.t }

type 'a t = {
  shards : 'a shard array;
  namespace : string;
  spill : bool;
  (* cache generation the resident entries were loaded under; a bump by
     a sibling process (cache clear) invalidates them — see
     [revalidate] *)
  cache_gen : int Atomic.t;
}

let () =
  Obs.Metrics.declare ~help:"Memo hits (in-memory or spilled) by namespace"
    Obs.Metrics.Counter "memo.hits";
  Obs.Metrics.declare ~help:"Memo hits served from the spill cache"
    Obs.Metrics.Counter "memo.spill_hits";
  Obs.Metrics.declare ~help:"Memo misses by namespace"
    Obs.Metrics.Counter "memo.misses";
  Obs.Metrics.declare ~help:"Memo stores by namespace"
    Obs.Metrics.Counter "memo.stores";
  Obs.Metrics.declare ~help:"Entries resident per memo shard"
    Obs.Metrics.Gauge "memo.shard_items";
  Obs.Metrics.declare
    ~help:"Memo tables dropped after a cache generation bump"
    Obs.Metrics.Counter "memo.invalidated"

let create ?(shards = 16) ?(spill = true) ~namespace () =
  if shards < 1 then invalid_arg "Memo.create: shards must be >= 1";
  { shards =
      Array.init shards (fun _ ->
          { lock = Mutex.create (); table = Hashtbl.create 64 });
    namespace;
    spill;
    cache_gen = Atomic.make (if spill then Cache.generation () else 0) }

(* FNV-1a; the shard index takes the top bits so keys sharing a long
   common prefix (the "op-" discriminator) still spread. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let shard_of t key =
  let h = Int64.to_int (Int64.shift_right_logical (fnv64 key) 3) land max_int in
  t.shards.(h mod Array.length t.shards)

let with_lock s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let find t ~key =
  let ns = [ ("namespace", t.namespace) ] in
  let s = shard_of t key in
  match with_lock s (fun () -> Hashtbl.find_opt s.table key) with
  | Some v ->
    Obs.Metrics.inc ~labels:ns "memo.hits";
    Some v
  | None ->
    let spilled =
      if t.spill then Cache.find ~namespace:t.namespace ~key () else None
    in
    (match spilled with
     | Some v ->
       Obs.Metrics.inc ~labels:ns "memo.hits";
       Obs.Metrics.inc ~labels:ns "memo.spill_hits";
       with_lock s (fun () -> Hashtbl.replace s.table key v);
       Some v
     | None ->
       Obs.Metrics.inc ~labels:ns "memo.misses";
       None)

let store t ~key value =
  let s = shard_of t key in
  with_lock s (fun () -> Hashtbl.replace s.table key value);
  Obs.Metrics.inc ~labels:[ ("namespace", t.namespace) ] "memo.stores";
  if t.spill then Cache.store ~namespace:t.namespace ~key value

let find_or_compute t ~key f =
  match find t ~key with
  | Some v -> (v, true)
  | None ->
    let v = f () in
    store t ~key v;
    (v, false)

let shards t = Array.length t.shards

let size t =
  Array.fold_left
    (fun acc s -> acc + with_lock s (fun () -> Hashtbl.length s.table))
    0 t.shards

let observe_occupancy t =
  Array.iteri
    (fun i s ->
      let len = float_of_int (with_lock s (fun () -> Hashtbl.length s.table)) in
      Obs.Metrics.observe "memo.shard_occupancy" len;
      Obs.Metrics.set
        ~labels:[ ("namespace", t.namespace); ("shard", string_of_int i) ]
        "memo.shard_items" len)
    t.shards

let clear t =
  Array.iter (fun s -> with_lock s (fun () -> Hashtbl.reset s.table)) t.shards

(* Cross-process coherence: resident entries were loaded (or computed)
   under some cache generation; if a sibling process bumped it (a
   `cache clear` invalidating the shared directory), drop them so the
   next requests recompute instead of serving from a table the
   operator meant to empty.  Values are deterministic per key, so this
   only matters when an invalidation *signals intent* — which is
   exactly what the generation stamp encodes. *)
let revalidate t =
  if not t.spill then false
  else begin
    let g = Cache.generation () in
    let seen = Atomic.get t.cache_gen in
    if g = seen || not (Atomic.compare_and_set t.cache_gen seen g) then false
    else begin
      clear t;
      Obs.Metrics.inc ~labels:[ ("namespace", t.namespace) ] "memo.invalidated";
      Obs.Flight.record ~severity:Obs.Flight.Warn "memo.invalidated"
        [ ("namespace", t.namespace);
          ("generation", string_of_int g) ];
      Log.warn
        "memo: cache generation moved to %d — dropped resident %s tables"
        g t.namespace;
      true
    end
  end

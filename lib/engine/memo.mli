(** Sharded in-memory memo tables with optional spill to {!Cache}.

    A memo maps string keys (structural hashes in the batch service) to
    string payloads.  The key space is split across [shards] independent
    hash tables, each behind its own mutex, selected by the top bits of
    a hash of the key — so concurrent domains working on disjoint keys
    almost never contend on one lock.

    When [spill] is on, a store also writes the entry through {!Cache}
    (namespace-isolated, best-effort: a failing cache write degrades to
    memory-only exactly as {!Cache.store} documents), and a miss in the
    shard probes the cache before giving up; a spill hit is promoted
    back into its shard.  Lookups count ["memo.hits"] /
    ["memo.misses"] / ["memo.spill_hits"] / ["memo.stores"] as
    [Obs.Metrics] counters. *)

type t

val create : ?shards:int -> ?spill:bool -> namespace:string -> unit -> t
(** [shards] defaults to 16 (raises [Invalid_argument] below 1);
    [spill] defaults to [true].  [namespace] isolates the spilled
    entries in the cache directory. *)

val find : t -> key:string -> string option

val store : t -> key:string -> string -> unit

val find_or_compute : t -> key:string -> (unit -> string) -> string * bool
(** The cached payload and whether it was a hit; on a miss the computed
    payload is stored before returning [(payload, false)]. *)

val shards : t -> int

val size : t -> int
(** Entries currently resident in memory (spilled-only entries not
    counted). *)

val observe_occupancy : t -> unit
(** Record each shard's resident entry count into the
    ["memo.shard_occupancy"] [Obs.Metrics] histogram — a flat
    distribution means the hash prefix is spreading keys evenly. *)

val clear : t -> unit
(** Drop the in-memory shards (spilled entries survive in the cache). *)

val revalidate : t -> bool
(** Cross-process coherence probe: compare {!Cache.generation} against
    the generation the resident entries were loaded under; if a sibling
    process bumped it (a [cache clear] on the shared directory), drop
    the in-memory shards, count ["memo.invalidated"], record a Warn
    flight event and return [true].  Cheap when nothing changed (one
    small file read) — the daemon's watchdog calls this every tick.
    Always [false] for a no-spill memo (nothing shared to go stale). *)

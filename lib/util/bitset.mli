(** Fixed-capacity mutable bitsets over [0, capacity).

    Used for dense node-set operations on data-flow graphs (convexity
    checks, reachability closures) where lists and hash sets are too
    slow.  Elements are packed 63 to a native-int word; the scans
    ([intersects], [subset], [equal]) stop at the first deciding word
    and [iter] skips empty words. *)

type t

val create : int -> t
(** [create capacity] — all bits clear.  Capacity must be non-negative. *)

val capacity : t -> int
val copy : t -> t
val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool

val union_into : t -> t -> unit
(** [union_into dst src] — [dst := dst ∪ src].  Capacities must match. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] — [dst := dst ∩ src]. *)

val diff_into : t -> t -> unit
(** [diff_into dst src] — [dst := dst \ src]. *)

val intersects : t -> t -> bool
(** True when the two sets share at least one element. *)

val subset : t -> t -> bool
(** [subset a b] — every element of [a] is in [b]. *)

val equal : t -> t -> bool
val iter : (int -> unit) -> t -> unit
(** Ascending order, as are [fold] and [elements]. *)

val next : t -> int -> int
(** [next t i] — the smallest member [>= i], or [capacity t] when there
    is none.  [i] must be non-negative.  [let v = ref (next t 0) in
    while !v < capacity t do ...; v := next t (!v + 1) done] visits the
    members in ascending order without allocating. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t
(** [of_list capacity elts]. *)

val to_key : t -> string
(** The raw words as a string: equal for equal sets, distinct for
    distinct sets of the same capacity — a cheap hash-table key. *)

(** An append-only store of distinct sets of one capacity, packed word
    after word into one growable array and interned by an
    open-addressing table over a hash of their words.  Index [i] is the
    [i]-th set added, so a breadth-first search can run its queue as
    the index range [\[explored, length)] of the store that also
    remembers every set it has seen. *)
module Store : sig
  type set := t
  type t

  val create : int -> t
  (** [create capacity] — an empty store of sets of [capacity]. *)

  val length : t -> int
  (** Number of sets added. *)

  val add : t -> set -> bool
  (** Store a copy of the set at index [length] unless an equal set is
      stored already; true when it was added. *)

  val mem_with : t -> set -> int -> bool
  (** [mem_with s set v] — [set ∪ {v}] is stored.  Neither builds nor
      changes a set. *)

  val add_with : t -> set -> int -> bool
  (** [add_with s set v] — {!add} of [set ∪ {v}], leaving [set] as it
      is. *)

  val load : t -> int -> set -> unit
  (** [load s i dst] overwrites [dst] with the [i]-th set added. *)
end

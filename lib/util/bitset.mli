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

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t
(** [of_list capacity elts]. *)

val to_key : t -> string
(** The raw words as a string: equal for equal sets, distinct for
    distinct sets of the same capacity — a cheap hash-table key. *)

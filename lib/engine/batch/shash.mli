(** Stable structural hashing for memo keys.

    FNV-1a over the canonical JSON serialization of an instance — a
    pure function of the bytes, so hashes are identical across runs,
    domains and machines (unlike [Hashtbl.hash], whose contract allows
    variation between OCaml versions). *)

val fnv64 : string -> int64
(** 64-bit FNV-1a of a byte string. *)

val hex : int64 -> string
(** 16 lowercase hex digits. *)

val of_instance : Instance.t -> string
(** [hex (fnv64 (Util.Json.to_string (Instance.to_json i)))] — the
    caller is expected to pass an already-canonicalized
    ({!Canon.instance}) and field-trimmed instance, so equal problems
    produce equal keys. *)

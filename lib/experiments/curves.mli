(** Cached per-kernel configuration curves and the published task-set
    compositions.

    Curve generation (the XPRES substitute) is the expensive part of the
    Chapter 3/4 experiments, so curves and candidate lists live in two
    spilling {!Engine.Memo}s (namespaces ["curve"] and
    ["candidates.v2"]) backed by the persistent on-disk store
    ([Engine.Cache], under [_cache/]).  Their keys are
    [name ^ "|" ^ Ise.Curve.params_key (current_params ())], so the
    generator and the cost backend are part of every key.  A warm
    process therefore never regenerates a curve; telemetry
    distinguishes in-process hits (["memo.hits"] with
    [namespace="curve"]) from the engine's ["cache.hits"] /
    ["cache.misses"]. *)

val base_params : Ise.Curve.params
(** The generation parameters every experiment shares
    ([Ise.Curve.small]); they are part of the persistent cache key. *)

val set_generator : Ise.Isegen.choice -> unit
(** Select the candidate generator for every subsequently generated
    curve (the CLI's [--generator]).  Curves of every generator stay
    cached side by side, distinguished by key. *)

val set_hw : Isa.Hw_model.backend -> unit
(** Select the hardware cost backend for every subsequently generated
    curve (the CLI's [--hw-model]); keyed like {!set_generator}. *)

val current_params : unit -> Ise.Curve.params
(** {!base_params} with the selected generator and cost backend
    applied. *)

val curve : string -> Isa.Config.t
(** Configuration curve of a kernel by benchmark name (cached). *)

val candidates : string -> Ise.Select.candidate list
(** Custom-instruction candidates of a kernel (cached). *)

val warm : ?pool:Engine.Parallel.Pool.t -> string list -> unit
(** Ensure every named kernel's curve is resident: disk-cached curves
    are loaded, the rest are generated on [pool]'s resident domains
    (per-kernel outer items, each splitting into per-block/per-budget
    inner items that idle domains steal) and persisted.  Without a pool
    generation runs sequentially; results are bit-identical either
    way. *)

val reset : unit -> unit
(** Drop the memos' resident entries (the persistent store is
    untouched) — used by benchmarks to measure cold paths. *)

val taskset_ch3 : int -> string list
(** Composition of Table 3.1's task sets (1-based index 1..6). *)

val taskset_ch4 : int -> string list
(** Composition of Table 4.1's task sets (1..5).  The thesis's [ispell]
    (Trimaran) benchmark is substituted by [md5] — see DESIGN.md. *)

val taskset_ch5 : int -> string list
(** Composition of Table 5.2's task sets (1..5). *)

val tasks_of : u:float -> string list -> Rt.Task.t list
(** Real-time tasks over the kernels' curves with periods set for a
    total software utilization of [u] in equal shares (§3.2). *)

val max_area_of : Rt.Task.t list -> int
(** Σ of the tasks' maximum configuration areas — the Max_Area budget
    reference of §3.2. *)

(** Benchmark kernel models.

    Structured-program models of the MiBench / MediaBench / WCET-suite
    kernels used across the thesis's experiments (Tables 3.1, 4.1, 5.1,
    5.2).  Block sizes, operator mixes and loop bounds are calibrated to
    the characteristics the thesis reports in Table 5.1 (WCET cycles,
    maximum and average basic-block size).  Construction is fully
    deterministic. *)

module Blockgen = Blockgen
(** Re-exported so library users can build custom blocks. *)

val adpcm_enc : unit -> Ir.Cfg.t
val adpcm_dec : unit -> Ir.Cfg.t
val sha : unit -> Ir.Cfg.t
val jfdctint : unit -> Ir.Cfg.t
val g721_enc : unit -> Ir.Cfg.t
val g721_dec : unit -> Ir.Cfg.t
val lms : unit -> Ir.Cfg.t
val ndes : unit -> Ir.Cfg.t
val rijndael : unit -> Ir.Cfg.t
val des3 : unit -> Ir.Cfg.t
val aes : unit -> Ir.Cfg.t
val blowfish : unit -> Ir.Cfg.t
val crc32 : unit -> Ir.Cfg.t
val jpeg_enc : unit -> Ir.Cfg.t
val jpeg_dec : unit -> Ir.Cfg.t
val compress : unit -> Ir.Cfg.t
val susan : unit -> Ir.Cfg.t
val md5 : unit -> Ir.Cfg.t
val edn : unit -> Ir.Cfg.t
val fft : unit -> Ir.Cfg.t
val viterbi : unit -> Ir.Cfg.t
val sobel : unit -> Ir.Cfg.t

val all : unit -> (string * Ir.Cfg.t) list
(** Every kernel, freshly built, keyed by its benchmark name (e.g.
    ["sha"], ["g721decode"], ["3des"]). *)

val find_opt : string -> Ir.Cfg.t option
(** Builds only the named kernel, afresh on every call. *)

val find : string -> Ir.Cfg.t
(** Raises [Not_found] for unknown names; prefer {!find_opt}. *)

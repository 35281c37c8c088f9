module Blockgen = Blockgen
module Prng = Util.Prng
open Ir.Cfg

(* Wrap a statement in a loop whose bound brings the WCET close to the
   published Table 5.1 figure for the kernel. *)
let calibrated ~target body =
  let body_wcet = Ir.Cfg.wcet { name = "body"; code = body } in
  loop (max 1 (target / max 1 body_wcet)) body

let blk prng label ?(loads = 0) ?(stores = 0) size mix =
  block label (Blockgen.block ?loads:(Some loads) ?stores:(Some stores) prng ~size mix)

let adpcm ~name ~seed =
  let p = Prng.create seed in
  let body =
    seq
      [ blk p "predict" ~loads:4 ~stores:1 331 Blockgen.dsp_mix;
        If
          ( { label = "sign"; body = Blockgen.block p ~size:10 Blockgen.control_mix },
            blk p "step_up" ~loads:1 ~stores:1 18 Blockgen.control_mix,
            blk p "step_down" ~loads:1 ~stores:1 8 Blockgen.control_mix );
        blk p "clamp" ~stores:1 14 Blockgen.control_mix ]
  in
  { name; code = calibrated ~target:127_407 body }

let adpcm_enc () = adpcm ~name:"adpcm_enc" ~seed:101
let adpcm_dec () = adpcm ~name:"adpcm_dec" ~seed:102

let sha () =
  let p = Prng.create 103 in
  let body =
    seq
      [ blk p "schedule" ~loads:16 ~stores:16 487 Blockgen.crypto_mix;
        loop 80 (blk p "round" ~loads:2 ~stores:1 34 Blockgen.crypto_mix);
        blk p "digest" ~loads:5 ~stores:5 22 Blockgen.crypto_mix ]
  in
  { name = "sha"; code = calibrated ~target:9_163_779 body }

let jfdctint () =
  let p = Prng.create 104 in
  { name = "jfdctint";
    code =
      seq
        [ loop 8 (block "dct_row" (Blockgen.dct8 ()));
          loop 8 (block "dct_col" (Blockgen.dct8 ()));
          blk p "descale" ~loads:8 ~stores:8 40 Blockgen.control_mix ] }

let g721 ~name ~seed ~target =
  let p = Prng.create seed in
  let body =
    seq
      [ blk p "reconstruct" ~loads:3 ~stores:1 80 Blockgen.dsp_mix;
        If
          ( { label = "quan"; body = Blockgen.block p ~size:9 Blockgen.control_mix },
            blk p "update_fast" ~loads:2 ~stores:1 12 Blockgen.dsp_mix,
            blk p "update_slow" ~loads:2 ~stores:1 9 Blockgen.dsp_mix );
        loop 6 (blk p "predictor_tap" ~loads:2 ~stores:1 11 Blockgen.dsp_mix);
        blk p "scale" ~loads:1 ~stores:1 8 Blockgen.control_mix ]
  in
  { name; code = calibrated ~target body }

let g721_dec () = g721 ~name:"g721decode" ~seed:105 ~target:113_295_478
let g721_enc () = g721 ~name:"g721encode" ~seed:106 ~target:121_000_000

let lms () =
  let p = Prng.create 107 in
  let body =
    seq
      [ loop 16 (blk p "fir_tap" ~loads:2 29 Blockgen.dsp_mix);
        blk p "error" ~loads:1 ~stores:1 8 Blockgen.dsp_mix;
        loop 16 (blk p "update_tap" ~loads:2 ~stores:1 7 Blockgen.dsp_mix) ]
  in
  { name = "lms"; code = calibrated ~target:65_051 body }

let ndes () =
  let p = Prng.create 108 in
  let body =
    seq
      [ blk p "key_mix" ~loads:4 ~stores:2 56 Blockgen.crypto_mix;
        loop 16
          (seq
             [ blk p "feistel" ~loads:4 ~stores:1 12 Blockgen.crypto_mix;
               blk p "swap" ~loads:2 ~stores:2 7 Blockgen.crypto_mix ]) ]
  in
  { name = "ndes"; code = calibrated ~target:21_232 body }

let rijndael () =
  let p = Prng.create 109 in
  let body =
    loop 10
      (seq
         [ blk p "round" ~loads:16 ~stores:4 239 Blockgen.crypto_mix;
           blk p "mix_columns" ~loads:4 ~stores:4 24 Blockgen.crypto_mix;
           blk p "add_key" ~loads:4 ~stores:4 15 Blockgen.crypto_mix ])
  in
  { name = "rijndael"; code = calibrated ~target:13_878_360 body }

let des3 () =
  let p = Prng.create 110 in
  let body =
    seq
      [ blk p "unrolled_rounds" ~loads:32 ~stores:8 2745 Blockgen.crypto_mix;
        loop 3 (blk p "permute" ~loads:4 ~stores:2 59 Blockgen.crypto_mix) ]
  in
  { name = "3des"; code = calibrated ~target:106_062_791 body }

let aes () =
  let p = Prng.create 111 in
  let body =
    loop 10
      (seq
         [ blk p "round" ~loads:8 ~stores:4 227 Blockgen.crypto_mix;
           blk p "sbox" ~loads:4 ~stores:4 16 Blockgen.crypto_mix;
           blk p "shift_rows" ~loads:2 ~stores:2 13 Blockgen.crypto_mix ])
  in
  { name = "aes"; code = calibrated ~target:30_638 body }

let blowfish () =
  let p = Prng.create 112 in
  let body =
    loop 16
      (seq
         [ blk p "f_unrolled" ~loads:8 ~stores:2 457 Blockgen.crypto_mix;
           blk p "xor_round" ~loads:2 ~stores:2 22 Blockgen.crypto_mix;
           blk p "swap" ~loads:2 ~stores:2 18 Blockgen.crypto_mix ])
  in
  { name = "blowfish"; code = calibrated ~target:435_418_994 body }

let crc32 () =
  { name = "crc32";
    code = calibrated ~target:3_932_160 (block "crc_byte" (Blockgen.crc_byte ())) }

let jpeg ~name ~seed ~target =
  let p = Prng.create seed in
  let body =
    seq
      [ loop 8 (block "dct_row" (Blockgen.dct8 ()));
        loop 8 (block "dct_col" (Blockgen.dct8 ()));
        loop 64 (blk p "quantize" ~loads:2 ~stores:1 12 Blockgen.control_mix);
        loop 20 (blk p "huffman" ~loads:2 ~stores:1 25 Blockgen.control_mix);
        blk p "emit" ~loads:1 ~stores:2 16 Blockgen.control_mix ]
  in
  { name; code = calibrated ~target body }

let jpeg_enc () = jpeg ~name:"jpeg_enc" ~seed:113 ~target:38_000_000
let jpeg_dec () = jpeg ~name:"jpeg_dec" ~seed:114 ~target:31_000_000

let compress () =
  let p = Prng.create 115 in
  let body =
    seq
      [ blk p "hash" ~loads:2 ~stores:1 23 Blockgen.crypto_mix;
        If
          ( { label = "match"; body = Blockgen.block p ~size:8 Blockgen.control_mix },
            blk p "emit_code" ~loads:1 ~stores:1 17 Blockgen.control_mix,
            blk p "add_entry" ~loads:1 ~stores:2 11 Blockgen.control_mix ) ]
  in
  { name = "compress"; code = calibrated ~target:9_500_000 body }

let susan () =
  let p = Prng.create 116 in
  let body =
    seq
      [ loop 9 (blk p "usan_accum" ~loads:3 31 Blockgen.dsp_mix);
        blk p "threshold" ~loads:1 ~stores:1 13 Blockgen.control_mix;
        blk p "direction" ~loads:2 ~stores:1 27 Blockgen.dsp_mix ]
  in
  { name = "susan"; code = calibrated ~target:47_000_000 body }

let md5 () =
  let p = Prng.create 117 in
  let body =
    seq
      [ blk p "decode" ~loads:16 ~stores:16 74 Blockgen.crypto_mix;
        loop 64 (blk p "step" ~loads:2 ~stores:1 13 Blockgen.crypto_mix);
        blk p "final_add" ~loads:4 ~stores:4 12 Blockgen.crypto_mix ]
  in
  { name = "md5"; code = calibrated ~target:5_200_000 body }

let edn () =
  let p = Prng.create 118 in
  let body =
    seq
      [ loop 32 (blk p "mac_tap" ~loads:2 9 Blockgen.dsp_mix);
        loop 16 (blk p "latsynth" ~loads:2 ~stores:1 14 Blockgen.dsp_mix);
        blk p "iir" ~loads:4 ~stores:2 41 Blockgen.dsp_mix ]
  in
  { name = "edn"; code = calibrated ~target:262_000 body }

let fft () =
  let p = Prng.create 119 in
  (* log2(256) = 8 stages of 128 butterflies plus bit-reversal *)
  let body =
    seq
      [ loop 256 (blk p "bit_reverse" ~loads:1 ~stores:1 6 Blockgen.control_mix);
        loop 8 (loop 128 (block "butterfly" (Blockgen.fft_butterfly ()))) ]
  in
  { name = "fft"; code = calibrated ~target:1_800_000 body }

let viterbi () =
  let p = Prng.create 120 in
  (* 64 trellis states per received symbol, then traceback *)
  let body =
    seq
      [ loop 64 (block "acs" (Blockgen.viterbi_acs ()));
        blk p "normalise" ~loads:2 ~stores:1 12 Blockgen.dsp_mix;
        loop 8 (blk p "traceback" ~loads:2 ~stores:1 7 Blockgen.control_mix) ]
  in
  { name = "viterbi"; code = calibrated ~target:2_900_000 body }

let sobel () =
  let p = Prng.create 121 in
  let body =
    seq
      [ block "window" (Blockgen.sobel_window ());
        blk p "write_back" ~loads:1 ~stores:1 5 Blockgen.control_mix ]
  in
  { name = "sobel"; code = calibrated ~target:21_000_000 body }

(* Benchmark name -> builder, in the order [all] lists them.  [find]
   builds only the kernel asked for; nothing is cached, so no CFG (and
   no DFG closure) is shared between callers or domains. *)
let table =
  [ ("adpcm_enc", adpcm_enc); ("adpcm_dec", adpcm_dec); ("sha", sha);
    ("jfdctint", jfdctint); ("g721encode", g721_enc); ("g721decode", g721_dec);
    ("lms", lms); ("ndes", ndes); ("rijndael", rijndael); ("3des", des3);
    ("aes", aes); ("blowfish", blowfish); ("crc32", crc32);
    ("jpeg_enc", jpeg_enc); ("jpeg_dec", jpeg_dec); ("compress", compress);
    ("susan", susan); ("md5", md5); ("edn", edn); ("fft", fft);
    ("viterbi", viterbi); ("sobel", sobel) ]

let all () = List.map (fun (name, build) -> (name, build ())) table

let find_opt name = Option.map (fun build -> build ()) (List.assoc_opt name table)

let find name =
  match find_opt name with
  | Some cfg -> cfg
  | None -> raise Not_found

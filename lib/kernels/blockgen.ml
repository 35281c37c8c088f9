module B = Ir.Dfg.Builder
module Prng = Util.Prng

type mix = (Ir.Op.kind * int) list

let crypto_mix =
  [ (Ir.Op.Xor, 30); (Ir.Op.And, 14); (Ir.Op.Or, 12); (Ir.Op.Shl, 10);
    (Ir.Op.Shr, 12); (Ir.Op.Add, 12); (Ir.Op.Not, 4); (Ir.Op.Sub, 3);
    (Ir.Op.Cmp, 2); (Ir.Op.Select, 1) ]

let dsp_mix =
  [ (Ir.Op.Add, 30); (Ir.Op.Sub, 18); (Ir.Op.Mul, 20); (Ir.Op.Shl, 8);
    (Ir.Op.Shr, 10); (Ir.Op.And, 4); (Ir.Op.Cmp, 4); (Ir.Op.Select, 4);
    (Ir.Op.Const, 2) ]

let control_mix =
  [ (Ir.Op.Cmp, 20); (Ir.Op.Select, 16); (Ir.Op.Add, 22); (Ir.Op.Sub, 14);
    (Ir.Op.And, 10); (Ir.Op.Shr, 8); (Ir.Op.Or, 6); (Ir.Op.Xor, 4) ]

let draw_kind prng mix =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 mix in
  let roll = Prng.int prng total in
  let rec pick acc = function
    | [] -> assert false
    | (k, w) :: rest -> if roll < acc + w then k else pick (acc + w) rest
  in
  pick 0 mix

let block ?(loads = 0) ?(stores = 0) ?(window = 12) ?(live_in_bias = 0.15) prng
    ~size mix =
  let b = B.create () in
  (* every value so far, oldest first *)
  let values = Array.make (max 0 loads + max 0 size) 0 in
  let count = ref 0 in
  let push v =
    values.(!count) <- v;
    incr count
  in
  (* Memory reads first: addresses are implicit live-ins. *)
  for _ = 1 to loads do
    push (B.add b Ir.Op.Load)
  done;
  for _ = 1 to size do
    let kind = draw_kind prng mix in
    let pool = !count in
    let operands = ref [] in
    for _ = 1 to Ir.Op.arity kind do
      if pool > 0 && Prng.float prng 1.0 >= live_in_bias then begin
        let lo = max 0 (pool - window) in
        let pick = values.(Prng.in_range prng lo (pool - 1)) in
        if not (List.mem pick !operands) then operands := pick :: !operands
      end
    done;
    push (B.add_with b kind !operands)
  done;
  (* Memory writes consume the freshest values. *)
  for i = 1 to min stores !count do
    ignore (B.add_with b Ir.Op.Store [ values.(!count - i) ])
  done;
  B.finish b

(* 8-point Loeffler-style integer DCT: loads, butterfly stages with
   constant multiplies, rounding shifts, stores.  Deterministic. *)
let dct8 () =
  let b = B.create () in
  let x = Array.init 8 (fun _ -> B.add b Ir.Op.Load) in
  let butterfly a c =
    (B.add_with b Ir.Op.Add [ a; c ], B.add_with b Ir.Op.Sub [ a; c ])
  in
  (* Stage 1: mirror pairs. *)
  let s0, d0 = butterfly x.(0) x.(7) in
  let s1, d1 = butterfly x.(1) x.(6) in
  let s2, d2 = butterfly x.(2) x.(5) in
  let s3, d3 = butterfly x.(3) x.(4) in
  (* Stage 2 even part. *)
  let e0, e1 = butterfly s0 s3 in
  let e2, e3 = butterfly s1 s2 in
  let y0 = B.add_with b Ir.Op.Add [ e0; e2 ] in
  let y4 = B.add_with b Ir.Op.Sub [ e0; e2 ] in
  let rot a c =
    let ka = B.add b Ir.Op.Const and kc = B.add b Ir.Op.Const in
    let ma = B.add_with b Ir.Op.Mul [ a; ka ]
    and mc = B.add_with b Ir.Op.Mul [ c; kc ] in
    let sum = B.add_with b Ir.Op.Add [ ma; mc ] in
    B.add_with b Ir.Op.Shr [ sum ]
  in
  let y2 = rot e1 e3 in
  let y6 = rot e3 e1 in
  (* Stage 2 odd part: four rotations over the differences. *)
  let y1 = rot d0 d3 in
  let y3 = rot d1 d2 in
  let y5 = rot d2 d1 in
  let y7 = rot d3 d0 in
  let round v =
    let k = B.add b Ir.Op.Const in
    let sum = B.add_with b Ir.Op.Add [ v; k ] in
    B.add_with b Ir.Op.Shr [ sum ]
  in
  List.iter
    (fun v -> ignore (B.add_with b Ir.Op.Store [ round v ]))
    [ y0; y1; y2; y3; y4; y5; y6; y7 ];
  B.finish b

let fft_butterfly () =
  let b = B.create () in
  let ar = B.add b Ir.Op.Load and ai = B.add b Ir.Op.Load in
  let br = B.add b Ir.Op.Load and bi = B.add b Ir.Op.Load in
  let wr = B.add b Ir.Op.Const and wi = B.add b Ir.Op.Const in
  (* complex multiply t = w * b *)
  let m1 = B.add_with b Ir.Op.Mul [ br; wr ] in
  let m2 = B.add_with b Ir.Op.Mul [ bi; wi ] in
  let m3 = B.add_with b Ir.Op.Mul [ br; wi ] in
  let m4 = B.add_with b Ir.Op.Mul [ bi; wr ] in
  let tr = B.add_with b Ir.Op.Sub [ m1; m2 ] in
  let ti = B.add_with b Ir.Op.Add [ m3; m4 ] in
  (* fixed-point renormalisation *)
  let tr' = B.add_with b Ir.Op.Shr [ tr ] in
  let ti' = B.add_with b Ir.Op.Shr [ ti ] in
  (* recombination *)
  let xr = B.add_with b Ir.Op.Add [ ar; tr' ] in
  let xi = B.add_with b Ir.Op.Add [ ai; ti' ] in
  let yr = B.add_with b Ir.Op.Sub [ ar; tr' ] in
  let yi = B.add_with b Ir.Op.Sub [ ai; ti' ] in
  List.iter
    (fun v -> ignore (B.add_with b Ir.Op.Store [ v ]))
    [ xr; xi; yr; yi ];
  B.finish b

let viterbi_acs () =
  let b = B.create () in
  let metric0 = B.add b Ir.Op.Load in
  let metric1 = B.add b Ir.Op.Load in
  let branch0 = B.add b Ir.Op.Const in
  let branch1 = B.add b Ir.Op.Const in
  let path0 = B.add_with b Ir.Op.Add [ metric0; branch0 ] in
  let path1 = B.add_with b Ir.Op.Add [ metric1; branch1 ] in
  let better = B.add_with b Ir.Op.Cmp [ path0; path1 ] in
  let metric = B.add_with b Ir.Op.Select [ better; path0; path1 ] in
  let surv0 = B.add b Ir.Op.Const in
  let surv1 = B.add b Ir.Op.Const in
  let survivor = B.add_with b Ir.Op.Select [ better; surv0; surv1 ] in
  ignore (B.add_with b Ir.Op.Store [ metric ]);
  ignore (B.add_with b Ir.Op.Store [ survivor ]);
  B.finish b

let sobel_window () =
  let b = B.create () in
  let px = Array.init 8 (fun _ -> B.add b Ir.Op.Load) in
  let double v = B.add_with b Ir.Op.Shl [ v ] in
  (* gx = (p2 + 2*p4 + p7) - (p0 + 2*p3 + p5) *)
  let gx_pos =
    let d = double px.(4) in
    let s = B.add_with b Ir.Op.Add [ px.(2); d ] in
    B.add_with b Ir.Op.Add [ s; px.(7) ]
  in
  let gx_neg =
    let d = double px.(3) in
    let s = B.add_with b Ir.Op.Add [ px.(0); d ] in
    B.add_with b Ir.Op.Add [ s; px.(5) ]
  in
  let gx = B.add_with b Ir.Op.Sub [ gx_pos; gx_neg ] in
  (* gy = (p5 + 2*p6 + p7) - (p0 + 2*p1 + p2) *)
  let gy_pos =
    let d = double px.(6) in
    let s = B.add_with b Ir.Op.Add [ px.(5); d ] in
    B.add_with b Ir.Op.Add [ s; px.(7) ]
  in
  let gy_neg =
    let d = double px.(1) in
    let s = B.add_with b Ir.Op.Add [ px.(0); d ] in
    B.add_with b Ir.Op.Add [ s; px.(2) ]
  in
  let gy = B.add_with b Ir.Op.Sub [ gy_pos; gy_neg ] in
  (* |gx| + |gy| via compare/select absolute values *)
  let abs v =
    let zero = B.add b Ir.Op.Const in
    let neg = B.add_with b Ir.Op.Sub [ zero; v ] in
    let is_neg = B.add_with b Ir.Op.Cmp [ v; zero ] in
    B.add_with b Ir.Op.Select [ is_neg; neg; v ]
  in
  let magnitude = B.add_with b Ir.Op.Add [ abs gx; abs gy ] in
  let threshold = B.add b Ir.Op.Const in
  let edge = B.add_with b Ir.Op.Cmp [ threshold; magnitude ] in
  ignore (B.add_with b Ir.Op.Store [ edge ]);
  B.finish b

let crc_byte () =
  let b = B.create () in
  let crc = B.add b Ir.Op.Load in
  let data = B.add b Ir.Op.Load in
  let x = B.add_with b Ir.Op.Xor [ crc; data ] in
  let mask = B.add b Ir.Op.Const in
  let idx = B.add_with b Ir.Op.And [ x; mask ] in
  let table = B.add_with b Ir.Op.Load [ idx ] in
  let shifted = B.add_with b Ir.Op.Shr [ crc ] in
  let next = B.add_with b Ir.Op.Xor [ shifted; table ] in
  ignore (B.add_with b Ir.Op.Store [ next ]);
  B.finish b

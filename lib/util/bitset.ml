(* Word [i / bits] holds elements [i / bits * bits, +bits); bit [i mod
   bits] is element [i].  Bits past [capacity] stay clear, so equal
   sets have equal words. *)
type t = { words : int array; capacity : int }

(* every bit of a native int on a 64-bit host *)
let bits = 63

let words_for cap = (cap + bits - 1) / bits

let create capacity =
  assert (capacity >= 0);
  { words = Array.make (words_for capacity) 0; capacity }

let capacity t = t.capacity

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let check t i = assert (i >= 0 && i < t.capacity)

let set t i =
  check t i;
  let w = i / bits in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl (i mod bits)))

let clear t i =
  check t i;
  let w = i / bits in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w land lnot (1 lsl (i mod bits)))

let mem t i =
  check t i;
  Array.unsafe_get t.words (i / bits) land (1 lsl (i mod bits)) <> 0

let rec popcount w = if w = 0 then 0 else 1 + popcount (w land (w - 1))

let cardinal t = Array.fold_left (fun n w -> n + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let binop f dst src =
  assert (dst.capacity = src.capacity);
  let d = dst.words and s = src.words in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (f (Array.unsafe_get d i) (Array.unsafe_get s i))
  done

let union_into dst src = binop ( lor ) dst src
let inter_into dst src = binop ( land ) dst src
let diff_into dst src = binop (fun a b -> a land lnot b) dst src

(* The three scans below stop at the first word that decides. *)
let intersects a b =
  assert (a.capacity = b.capacity);
  let x = a.words and y = b.words in
  let len = Array.length x in
  let i = ref 0 in
  while !i < len && Array.unsafe_get x !i land Array.unsafe_get y !i = 0 do
    incr i
  done;
  !i < len

let subset a b =
  assert (a.capacity = b.capacity);
  let x = a.words and y = b.words in
  let len = Array.length x in
  let i = ref 0 in
  while !i < len && Array.unsafe_get x !i land lnot (Array.unsafe_get y !i) = 0 do
    incr i
  done;
  !i = len

let equal a b =
  a.capacity = b.capacity
  &&
  let x = a.words and y = b.words in
  let len = Array.length x in
  let i = ref 0 in
  while !i < len && Array.unsafe_get x !i = Array.unsafe_get y !i do
    incr i
  done;
  !i = len

let iter f t =
  let words = t.words in
  for wi = 0 to Array.length words - 1 do
    (* [lsr] is logical, so the top bit shifts down like any other *)
    let w = ref (Array.unsafe_get words wi) and i = ref (wi * bits) in
    while !w <> 0 do
      if !w land 1 <> 0 then f !i;
      w := !w lsr 1;
      incr i
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity elts =
  let t = create capacity in
  List.iter (set t) elts;
  t

let to_key t =
  let b = Bytes.create (8 * Array.length t.words) in
  Array.iteri (fun i w -> Bytes.set_int64_le b (8 * i) (Int64.of_int w)) t.words;
  Bytes.unsafe_to_string b

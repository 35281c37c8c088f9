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

(* Index of the lowest set bit of a non-zero word. *)
let lowest_bit w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFFFFFF = 0 then begin n := 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then !n + 1 else !n

let next t i =
  assert (i >= 0);
  if i >= t.capacity then t.capacity
  else begin
    let words = t.words in
    let len = Array.length words in
    let wi = ref (i / bits) in
    (* drop the members below [i] from its word *)
    let w = ref ((Array.unsafe_get words !wi lsr (i mod bits)) lsl (i mod bits)) in
    while !w = 0 && !wi + 1 < len do
      incr wi;
      w := Array.unsafe_get words !wi
    done;
    if !w = 0 then t.capacity else (!wi * bits) + lowest_bit !w
  end

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

module Store = struct
  type set = t

  (* Set [i] is [data.(i * width) .. data.(i * width + width - 1)], the
     words of a bitset of [capacity]; [hashes.(i)] is its hash.  [slots]
     is an open-addressing table (linear probing, at most half full)
     whose entries are set indices plus one, 0 marking a free slot. *)
  type t = {
    capacity : int;
    width : int;
    mutable data : int array;
    mutable hashes : int array;
    mutable length : int;
    mutable slots : int array;
  }

  let initial_sets = 64

  let create capacity =
    assert (capacity >= 0);
    let width = words_for capacity in
    { capacity;
      width;
      data = Array.make (initial_sets * width) 0;
      hashes = Array.make initial_sets 0;
      length = 0;
      slots = Array.make (2 * initial_sets) 0 }

  let length s = s.length

  (* The probes below read [set ∪ {v}] word by word without building
     it: word [vw] gains bit [vb].  [add] passes [vw = -1], which adds
     nothing. *)
  let word (set : set) vw vb j =
    let w = Array.unsafe_get set.words j in
    if j = vw then w lor vb else w

  let hash s set vw vb =
    let h = ref 0 in
    for j = 0 to s.width - 1 do
      h := (!h lxor word set vw vb j) * 0x2545F4914F6CDD1D
    done;
    (* fold the high bits, which the multiplications fill, into the
       low bits that pick a slot *)
    let h = !h lxor (!h lsr 31) in
    (h * 0x5851F42D4C957F2D) lxor (h lsr 29)

  let same s set vw vb i =
    let data = s.data and base = i * s.width in
    let j = ref 0 in
    while !j < s.width && Array.unsafe_get data (base + !j) = word set vw vb !j do
      incr j
    done;
    !j = s.width

  (* The slot that holds [set ∪ {v}], or the free slot where it
     belongs. *)
  let slot s set vw vb h =
    let mask = Array.length s.slots - 1 in
    let k = ref (h land mask) in
    while
      let e = Array.unsafe_get s.slots !k in
      e <> 0 && not (Array.unsafe_get s.hashes (e - 1) = h && same s set vw vb (e - 1))
    do
      k := (!k + 1) land mask
    done;
    !k

  let rehash s =
    let slots = Array.make (2 * Array.length s.slots) 0 in
    let mask = Array.length slots - 1 in
    for i = 0 to s.length - 1 do
      let k = ref (s.hashes.(i) land mask) in
      while slots.(!k) <> 0 do
        k := (!k + 1) land mask
      done;
      slots.(!k) <- i + 1
    done;
    s.slots <- slots

  let grow s =
    let sets = 2 * Array.length s.hashes in
    let data = Array.make (sets * s.width) 0 in
    Array.blit s.data 0 data 0 (s.length * s.width);
    let hashes = Array.make sets 0 in
    Array.blit s.hashes 0 hashes 0 s.length;
    s.data <- data;
    s.hashes <- hashes

  let mem_in s (set : set) vw vb =
    assert (set.capacity = s.capacity);
    s.slots.(slot s set vw vb (hash s set vw vb)) <> 0

  let add_in s (set : set) vw vb =
    assert (set.capacity = s.capacity);
    let h = hash s set vw vb in
    let k = slot s set vw vb h in
    s.slots.(k) = 0
    && begin
      if s.length = Array.length s.hashes then grow s;
      let i = s.length in
      for j = 0 to s.width - 1 do
        s.data.((i * s.width) + j) <- word set vw vb j
      done;
      s.hashes.(i) <- h;
      s.length <- i + 1;
      s.slots.(k) <- i + 1;
      if 2 * s.length > Array.length s.slots then rehash s;
      true
    end

  let mem_with s set v =
    check set v;
    mem_in s set (v / bits) (1 lsl (v mod bits))

  let add_with s set v =
    check set v;
    add_in s set (v / bits) (1 lsl (v mod bits))

  let add s set = add_in s set (-1) 0

  let load s i (dst : set) =
    assert (dst.capacity = s.capacity && i >= 0 && i < s.length);
    Array.blit s.data (i * s.width) dst.words 0 s.width
end

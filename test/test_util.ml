let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Util.Prng.create 42 and b = Util.Prng.create 42 in
  for _ = 1 to 100 do
    check int "same stream" (Util.Prng.int a 1000) (Util.Prng.int b 1000)
  done

let test_prng_seeds_differ () =
  let a = Util.Prng.create 1 and b = Util.Prng.create 2 in
  let sa = List.init 20 (fun _ -> Util.Prng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Util.Prng.int b 1_000_000) in
  check bool "streams differ" true (sa <> sb)

let test_prng_bounds () =
  let p = Util.Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Util.Prng.int p 13 in
    check bool "in range" true (v >= 0 && v < 13);
    let r = Util.Prng.in_range p 5 9 in
    check bool "in closed range" true (r >= 5 && r <= 9);
    let f = Util.Prng.float p 2.5 in
    check bool "float in range" true (f >= 0. && f < 2.5)
  done

let test_prng_copy_independent () =
  let a = Util.Prng.create 5 in
  ignore (Util.Prng.int a 10);
  let b = Util.Prng.copy a in
  check int "copies agree" (Util.Prng.int a 1000) (Util.Prng.int b 1000)

let test_prng_shuffle_permutes () =
  let p = Util.Prng.create 11 in
  let arr = Array.init 50 (fun i -> i) in
  Util.Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check bool "is a permutation" true (sorted = Array.init 50 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Numeric                                                            *)
(* ------------------------------------------------------------------ *)

let test_gcd () =
  check int "gcd 12 18" 6 (Util.Numeric.gcd 12 18);
  check int "gcd 0 n" 7 (Util.Numeric.gcd 0 7);
  check int "gcd n 0" 7 (Util.Numeric.gcd 7 0);
  check int "gcd coprime" 1 (Util.Numeric.gcd 9 8);
  check int "gcd list" 4 (Util.Numeric.gcd_list [ 8; 12; 20 ]);
  check int "gcd empty" 0 (Util.Numeric.gcd_list [])

let test_lcm () =
  check int "lcm 4 6" 12 (Util.Numeric.lcm 4 6);
  check int "lcm with zero" 0 (Util.Numeric.lcm 0 5);
  check int "lcm list" 60 (Util.Numeric.lcm_list [ 4; 6; 10 ]);
  check int "lcm empty" 1 (Util.Numeric.lcm_list [])

let test_ceil_div () =
  check int "exact" 3 (Util.Numeric.ceil_div 9 3);
  check int "round up" 4 (Util.Numeric.ceil_div 10 3);
  check int "zero" 0 (Util.Numeric.ceil_div 0 5)

let test_clamp () =
  check int "below" 2 (Util.Numeric.clamp ~lo:2 ~hi:8 1);
  check int "above" 8 (Util.Numeric.clamp ~lo:2 ~hi:8 9);
  check int "inside" 5 (Util.Numeric.clamp ~lo:2 ~hi:8 5)

(* ------------------------------------------------------------------ *)
(* Bitset                                                             *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Util.Bitset.create 20 in
  check bool "fresh empty" true (Util.Bitset.is_empty s);
  Util.Bitset.set s 3;
  Util.Bitset.set s 17;
  check bool "mem 3" true (Util.Bitset.mem s 3);
  check bool "not mem 4" false (Util.Bitset.mem s 4);
  check int "cardinal" 2 (Util.Bitset.cardinal s);
  Util.Bitset.clear s 3;
  check bool "cleared" false (Util.Bitset.mem s 3);
  check Alcotest.(list int) "elements" [ 17 ] (Util.Bitset.elements s)

let test_bitset_setops () =
  let a = Util.Bitset.of_list 16 [ 1; 3; 5 ] in
  let b = Util.Bitset.of_list 16 [ 3; 4 ] in
  let u = Util.Bitset.copy a in
  Util.Bitset.union_into u b;
  check Alcotest.(list int) "union" [ 1; 3; 4; 5 ] (Util.Bitset.elements u);
  let i = Util.Bitset.copy a in
  Util.Bitset.inter_into i b;
  check Alcotest.(list int) "inter" [ 3 ] (Util.Bitset.elements i);
  let d = Util.Bitset.copy a in
  Util.Bitset.diff_into d b;
  check Alcotest.(list int) "diff" [ 1; 5 ] (Util.Bitset.elements d);
  check bool "intersects" true (Util.Bitset.intersects a b);
  check bool "subset of union" true (Util.Bitset.subset a u);
  check bool "not subset" false (Util.Bitset.subset u a)

let test_bitset_boundary () =
  (* Last bit of a byte and first of the next. *)
  let s = Util.Bitset.create 9 in
  Util.Bitset.set s 7;
  Util.Bitset.set s 8;
  check int "cardinal across bytes" 2 (Util.Bitset.cardinal s);
  check bool "bit 7" true (Util.Bitset.mem s 7);
  check bool "bit 8" true (Util.Bitset.mem s 8)

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/elements roundtrip" ~count:200
    QCheck.(list (int_bound 63))
    (fun l ->
      let dedup = List.sort_uniq compare l in
      Util.Bitset.elements (Util.Bitset.of_list 64 l) = dedup)

(* Model-based: every operation against a sorted int list, at
   capacities on both sides of the 63-bit word boundaries. *)
let bitset_capacities = [| 0; 1; 61; 62; 63; 64; 125; 519 |]

let prop_bitset_model =
  let module B = Util.Bitset in
  QCheck.Test.make ~name:"bitset agrees with a sorted-list model" ~count:500
    QCheck.(
      triple (int_bound 7) (list (pair bool (int_bound 1000))) (list (int_bound 1000)))
    (fun (ci, ops, other) ->
      let cap = bitset_capacities.(ci) in
      let elts l = if cap = 0 then [] else List.map (fun x -> x mod cap) l in
      let ops = if cap = 0 then [] else List.map (fun (add, x) -> (add, x mod cap)) ops in
      let a = B.create cap in
      let model =
        List.fold_left
          (fun m (add, x) ->
            if add then begin
              B.set a x;
              List.sort_uniq compare (x :: m)
            end
            else begin
              B.clear a x;
              List.filter (( <> ) x) m
            end)
          [] ops
      in
      let other = List.sort_uniq compare (elts other) in
      let b = B.of_list cap other in
      let union = List.sort_uniq compare (model @ other)
      and inter = List.filter (fun x -> List.mem x other) model
      and diff = List.filter (fun x -> not (List.mem x other)) model in
      let into f =
        let c = B.copy a in
        f c b;
        B.elements c
      in
      let iterated =
        let acc = ref [] in
        B.iter (fun x -> acc := x :: !acc) a;
        List.rev !acc
      in
      let all = List.init cap Fun.id in
      (* flipping any one element changes the key *)
      let key_injective =
        List.for_all
          (fun x ->
            let c = B.copy a in
            if B.mem c x then B.clear c x else B.set c x;
            B.to_key c <> B.to_key a && not (B.equal c a))
          all
      in
      B.capacity a = cap
      && B.elements a = model
      && iterated = model
      && B.fold (fun x acc -> x :: acc) a [] = List.rev model
      && List.for_all (fun x -> B.mem a x = List.mem x model) all
      && B.cardinal a = List.length model
      && B.is_empty a = (model = [])
      && into B.union_into = union
      && into B.inter_into = inter
      && into B.diff_into = diff
      && B.elements a = model
      && B.intersects a b = (inter <> [])
      && B.subset a b = (diff = [])
      && B.subset b a = List.for_all (fun x -> List.mem x model) other
      && B.equal a b = (model = other)
      && (B.to_key a = B.to_key b) = (model = other)
      && B.to_key (B.of_list cap model) = B.to_key a
      && key_injective
      && List.for_all
           (fun i ->
             B.next a i
             = match List.find_opt (fun x -> x >= i) model with
               | Some x -> x
               | None -> cap)
           (List.init (cap + 2) Fun.id))

(* The packed store against a list of sorted lists in insertion order:
   [add], the [∪ {v}] probe and [add_with], then [load] of every
   index.  Up to 600 operations on sets of up to four elements outgrow
   the store's initial 64 sets and 128 slots at the larger
   capacities. *)
let prop_bitset_store_model =
  let module B = Util.Bitset in
  QCheck.Test.make ~name:"bitset store agrees with a list-of-lists model" ~count:300
    QCheck.(
      pair (int_bound 6)
        (list_of_size (Gen.int_range 0 600)
           (triple (int_bound 2) (small_list (int_bound 1000)) (int_bound 1000))))
    (fun (ci, ops) ->
      let cap = [| 0; 1; 62; 63; 64; 125; 519 |].(ci) in
      let store = B.Store.create cap in
      let model = ref [] (* reversed *) in
      let stored l = List.mem l !model in
      let intern l =
        let fresh = not (stored l) in
        if fresh then model := l :: !model;
        fresh
      in
      let ok =
        List.for_all
          (fun (op, elts, v) ->
            let elts =
              if cap = 0 then []
              else List.filteri (fun i _ -> i < 4) elts |> List.map (fun x -> x mod cap)
            in
            let set = B.of_list cap elts in
            let l = List.sort_uniq compare elts in
            let result =
              if op = 0 || cap = 0 then B.Store.add store set = intern l
              else begin
                let v = v mod cap in
                let lv = List.sort_uniq compare (v :: l) in
                B.Store.mem_with store set v = stored lv
                && (op = 1 || B.Store.add_with store set v = intern lv)
              end
            in
            result && B.elements set = l && B.Store.length store = List.length !model)
          ops
      in
      let loaded =
        let dst = B.create cap in
        List.mapi
          (fun i _ ->
            B.Store.load store i dst;
            B.elements dst)
          !model
      in
      ok && loaded = List.rev !model)

(* ------------------------------------------------------------------ *)
(* Pareto front                                                       *)
(* ------------------------------------------------------------------ *)

let point cost value = { Util.Pareto_front.cost; value }

let test_front_simple () =
  let pts = [ point 0 10.; point 5 8.; point 5 9.; point 7 8.; point 9 6. ] in
  let f = Util.Pareto_front.front pts in
  check bool "is front" true (Util.Pareto_front.is_front f);
  check int "size" 3 (List.length f);
  check bool "keeps best at 5" true
    (List.exists (fun p -> p = point 5 8.) f);
  check bool "drops dominated (7,8)" false
    (List.exists (fun p -> p = point 7 8.) f)

let test_front_best_value_at () =
  let f = Util.Pareto_front.front [ point 0 10.; point 4 6.; point 8 3. ] in
  check (Alcotest.option (Alcotest.float 1e-9)) "budget 5" (Some 6.)
    (Util.Pareto_front.best_value_at ~cost:5 f);
  check (Alcotest.option (Alcotest.float 1e-9)) "budget 100" (Some 3.)
    (Util.Pareto_front.best_value_at ~cost:100 f)

let arb_points =
  QCheck.(
    list_of_size Gen.(int_range 0 40)
      (map (fun (c, v) -> point (abs c mod 100) (float_of_int (abs v mod 100)))
         (pair int int)))

let prop_front_nondominated =
  QCheck.Test.make ~name:"front members are mutually non-dominating" ~count:300
    arb_points
    (fun pts ->
      let f = Util.Pareto_front.front pts in
      Util.Pareto_front.is_front f)

let prop_front_covers =
  QCheck.Test.make ~name:"every input point is dominated-or-equal by the front"
    ~count:300 arb_points
    (fun pts ->
      let f = Util.Pareto_front.front pts in
      List.for_all
        (fun p ->
          List.exists
            (fun q -> Util.Pareto_front.dominates q p || q = p)
            f)
        pts)

let prop_front_eps_covers_self =
  QCheck.Test.make ~name:"a front 0-covers itself" ~count:100 arb_points
    (fun pts ->
      let f = Util.Pareto_front.front pts in
      Util.Pareto_front.eps_covers ~eps:0. ~exact:f f)

(* ------------------------------------------------------------------ *)
(* Fixed point                                                        *)
(* ------------------------------------------------------------------ *)

let test_fixed_roundtrip () =
  List.iter
    (fun f ->
      let x = Util.Fixed.of_float f in
      check (Alcotest.float 1e-4) "roundtrip" f (Util.Fixed.to_float x))
    [ 0.; 1.; -1.; 3.14159; -2.71828; 100.5 ]

let test_fixed_arith () =
  let open Util.Fixed in
  let a = of_float 2.5 and b = of_float 1.5 in
  check (Alcotest.float 1e-4) "add" 4.0 (to_float (add a b));
  check (Alcotest.float 1e-4) "sub" 1.0 (to_float (sub a b));
  check (Alcotest.float 1e-3) "mul" 3.75 (to_float (mul a b));
  check (Alcotest.float 1e-3) "div" (2.5 /. 1.5) (to_float (div a b))

let test_fixed_sqrt () =
  let open Util.Fixed in
  List.iter
    (fun f ->
      check (Alcotest.float 1e-2) "sqrt" (Float.sqrt f)
        (to_float (sqrt (of_float f))))
    [ 0.25; 1.0; 2.0; 9.0; 100.0 ]

let test_fixed_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Util.Fixed.div Util.Fixed.one Util.Fixed.zero))

let prop_fixed_add_commutes =
  QCheck.Test.make ~name:"fixed add commutes" ~count:200
    QCheck.(pair (float_range (-1000.) 1000.) (float_range (-1000.) 1000.))
    (fun (a, b) ->
      let open Util.Fixed in
      add (of_float a) (of_float b) = add (of_float b) (of_float a))

(* ------------------------------------------------------------------ *)
(* Group knapsack                                                     *)
(* ------------------------------------------------------------------ *)

let knapsack ~capacity groups =
  Util.Group_knapsack.solve ~capacity
    ~costs:(Array.of_list (List.map (fun g -> Array.of_list (List.map fst g)) groups))
    ~values:(Array.of_list (List.map (fun g -> Array.of_list (List.map snd g)) groups))

let choices = Alcotest.(array int)

let test_knapsack_known () =
  let groups =
    [ [ (0, 0.); (2, 3.); (4, 7.) ]; [ (0, 0.); (1, 2.); (3, 5.) ]; [ (0, 0.); (5, 10.) ] ]
  in
  check choices "budget 4" [| 2; 0; 0 |] (knapsack ~capacity:4 groups);
  check choices "budget 5" [| 0; 0; 1 |] (knapsack ~capacity:5 groups);
  check choices "budget 7" [| 1; 0; 1 |] (knapsack ~capacity:7 groups);
  check choices "budget 0" [| 0; 0; 0 |] (knapsack ~capacity:0 groups);
  check choices "no groups" [||] (knapsack ~capacity:3 [])

let test_knapsack_ties () =
  (* equal totals: the default and then the lowest option index win *)
  check choices "option 0 kept on a tie" [| 0 |] (knapsack ~capacity:4 [ [ (0, 0.); (1, 0.) ] ]);
  check choices "lowest index on a tie" [| 1 |]
    (knapsack ~capacity:4 [ [ (0, 0.); (1, 2.); (2, 2.) ] ]);
  check choices "earlier group keeps the cheaper cell" [| 1; 0 |]
    (knapsack ~capacity:1 [ [ (0, 0.); (1, 1.) ]; [ (0, 0.); (1, 1.) ] ])

let test_knapsack_rejects () =
  let raises name f =
    match f () with
    | (_ : int array) -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  raises "negative capacity" (fun () -> knapsack ~capacity:(-1) [ [ (0, 0.) ] ]);
  raises "negative cost" (fun () -> knapsack ~capacity:3 [ [ (0, 0.); (-1, 1.) ] ]);
  raises "ragged rows" (fun () ->
      Util.Group_knapsack.solve ~capacity:3 ~costs:[| [| 0; 1 |] |] ~values:[| [| 0. |] |]);
  raises "65536 options" (fun () ->
      Util.Group_knapsack.solve ~capacity:1
        ~costs:[| Array.make 65_536 1 |]
        ~values:[| Array.make 65_536 1. |]);
  check int "65535 options accepted" 1
    (Util.Group_knapsack.solve ~capacity:1
       ~costs:[| Array.make 65_535 1 |]
       ~values:[| Array.make 65_535 1. |]).(0)

(* Brute force over every option combination of up to 4 groups. *)
let prop_knapsack_optimal =
  QCheck.Test.make ~name:"knapsack value equals brute force" ~count:300
    QCheck.(pair (int_bound 12) (list_of_size Gen.(1 -- 4) (list_of_size Gen.(0 -- 3) (pair (int_range 1 6) (int_range 0 9)))))
    (fun (capacity, groups) ->
      let groups =
        List.map (fun g -> (0, 0.) :: List.map (fun (c, v) -> (c, float_of_int v)) g) groups
      in
      let value choice =
        List.fold_left2 (fun acc g j -> acc +. snd (List.nth g j)) 0. groups choice
      and cost choice = List.fold_left2 (fun acc g j -> acc + fst (List.nth g j)) 0 groups choice in
      let rec all = function
        | [] -> [ [] ]
        | g :: rest ->
          List.concat_map (fun tail -> List.mapi (fun j _ -> j :: tail) g) (all rest)
      in
      let best =
        List.fold_left
          (fun acc c -> if cost c <= capacity then Float.max acc (value c) else acc)
          0. (all groups)
      in
      let got = Array.to_list (knapsack ~capacity groups) in
      cost got <= capacity && value got = best)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes ] );
      ( "numeric",
        [ Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "lcm" `Quick test_lcm;
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "clamp" `Quick test_clamp ] );
      ( "bitset",
        [ Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "set operations" `Quick test_bitset_setops;
          Alcotest.test_case "byte boundary" `Quick test_bitset_boundary;
          qt prop_bitset_roundtrip;
          qt prop_bitset_model;
          qt prop_bitset_store_model ] );
      ( "pareto",
        [ Alcotest.test_case "simple front" `Quick test_front_simple;
          Alcotest.test_case "best value at" `Quick test_front_best_value_at;
          qt prop_front_nondominated;
          qt prop_front_covers;
          qt prop_front_eps_covers_self ] );
      ( "fixed",
        [ Alcotest.test_case "roundtrip" `Quick test_fixed_roundtrip;
          Alcotest.test_case "arithmetic" `Quick test_fixed_arith;
          Alcotest.test_case "sqrt" `Quick test_fixed_sqrt;
          Alcotest.test_case "div by zero" `Quick test_fixed_div_by_zero;
          qt prop_fixed_add_commutes ] );
      (* Alcotest sizes its suite column to the longest suite name and
         cuts test names to fit the rest, so suite names stay at most
         seven characters to keep the other names printed as before. *)
      ( "knap",
        [ Alcotest.test_case "known answers" `Quick test_knapsack_known;
          Alcotest.test_case "ties" `Quick test_knapsack_ties;
          Alcotest.test_case "rejects bad input" `Quick test_knapsack_rejects;
          qt prop_knapsack_optimal ] ) ]

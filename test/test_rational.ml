(* Unit and property tests for Rational: field laws, normalization
   invariants, ordering, floor/ceil, and parsing. *)

module Q = Rational

let q = Q.of_ints
let check_q msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

let test_normalization () =
  check_q "reduce" "2/3" (q 4 6);
  check_q "negative den" "-2/3" (q 2 (-3));
  check_q "double negative" "2/3" (q (-2) (-3));
  check_q "zero" "0" (q 0 17);
  check_q "integral" "5" (q 10 2);
  Alcotest.(check string) "den positive" "3" (Bigint.to_string (Q.den (q 2 (-3))));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () -> ignore (q 1 0))

let test_parse () =
  check_q "int" "42" (Q.of_string "42");
  check_q "fraction" "1/3" (Q.of_string "2/6");
  check_q "negative fraction" "-1/3" (Q.of_string "-2/6");
  check_q "decimal" "1/4" (Q.of_string "0.25");
  check_q "negative decimal" "-5/2" (Q.of_string "-2.5");
  check_q "decimal no int part" "1/2" (Q.of_string ".5");
  check_q "big decimal" "123456789123456789/100" (Q.of_string "1234567891234567.89");
  (* a zero denominator is a parse error, not an arithmetic one: callers
     (the instance parser, behind the serve daemon) catch the
     Invalid_argument family but must never see Division_by_zero *)
  Alcotest.check_raises "1/0 is a parse error"
    (Invalid_argument "Rational.of_string: zero denominator") (fun () ->
      ignore (Q.of_string "1/0"));
  Alcotest.check_raises "0/0 is a parse error"
    (Invalid_argument "Rational.of_string: zero denominator") (fun () ->
      ignore (Q.of_string "0/0"))

let test_arith () =
  check_q "add" "5/6" (Q.add (q 1 2) (q 1 3));
  check_q "sub" "1/6" (Q.sub (q 1 2) (q 1 3));
  check_q "mul" "1/6" (Q.mul (q 1 2) (q 1 3));
  check_q "div" "3/2" (Q.div (q 1 2) (q 1 3));
  check_q "inv" "-3/2" (Q.inv (q (-2) 3));
  check_q "add cancel" "0" (Q.add (q 1 2) (q (-1) 2));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_floor_ceil () =
  let cases =
    [ (7, 2, "3", "4"); (-7, 2, "-4", "-3"); (6, 3, "2", "2"); (-6, 3, "-2", "-2"); (0, 5, "0", "0"); (1, 3, "0", "1"); (-1, 3, "-1", "0") ]
  in
  List.iter
    (fun (n, d, fl, ce) ->
      check_q (Printf.sprintf "floor %d/%d" n d) fl (Q.floor (q n d));
      check_q (Printf.sprintf "ceil %d/%d" n d) ce (Q.ceil (q n d)))
    cases;
  Alcotest.(check int) "floor_int" 3 (Q.floor_int (q 7 2));
  Alcotest.(check int) "ceil_int" (-3) (Q.ceil_int (q (-7) 2))

let test_compare () =
  let open Q in
  Alcotest.(check bool) "1/2 < 2/3" true (q 1 2 < q 2 3);
  Alcotest.(check bool) "-1/2 > -2/3" true (q (-1) 2 > q (-2) 3);
  Alcotest.(check bool) "3/6 = 1/2" true (q 3 6 = q 1 2);
  Alcotest.(check bool) "min" true (Q.min (q 1 2) (q 1 3) = q 1 3);
  Alcotest.(check bool) "max" true (Q.max (q 1 2) (q 1 3) = q 1 2)

let test_to_int () =
  Alcotest.(check (option int)) "integral" (Some 5) (Q.to_int (q 10 2));
  Alcotest.(check (option int)) "fractional" None (Q.to_int (q 1 2));
  Alcotest.(check bool) "is_integer" true (Q.is_integer (q 4 2));
  Alcotest.(check bool) "not integer" false (Q.is_integer (q 1 2))

let test_to_float () =
  Alcotest.(check (float 1e-12)) "1/2" 0.5 (Q.to_float (q 1 2));
  Alcotest.(check (float 1e-12)) "-1/4" (-0.25) (Q.to_float (q (-1) 4))

let test_of_float () =
  check_q "dyadic" "1/2" (Q.of_float 0.5);
  check_q "negative" "-13/4" (Q.of_float (-3.25));
  check_q "zero" "0" (Q.of_float 0.0);
  check_q "integer" "42" (Q.of_float 42.0);
  (* 0.1 is NOT 1/10: the conversion is exact, not nearest-decimal *)
  check_q "0.1 exactly" "3602879701896397/36028797018963968" (Q.of_float 0.1);
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "roundtrip %h" f)
        f
        (Q.to_float (Q.of_float f)))
    (* tiny magnitudes (1e-300 etc.) are converted exactly too, but the
       roundtrip check would hit to_float's denominator overflow *)
    [ 0.1; -1e300; 3.14159; 12345.6789; Float.max_float ];
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%h rejected" f)
        true
        (match Q.of_float f with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* -- properties ---------------------------------------------------------- *)

let rat_gen =
  let open QCheck.Gen in
  map2 (fun n d -> q n d) (int_range (-10_000) 10_000) (int_range 1 10_000)

let rat = QCheck.make rat_gen ~print:Q.to_string
let rat3 = QCheck.(triple rat rat rat)

let prop_field_assoc =
  QCheck.Test.make ~name:"add and mul associative" ~count:1000 rat3 (fun (a, bq, c) ->
      Q.equal (Q.add a (Q.add bq c)) (Q.add (Q.add a bq) c)
      && Q.equal (Q.mul a (Q.mul bq c)) (Q.mul (Q.mul a bq) c))

let prop_distributive =
  QCheck.Test.make ~name:"distributivity" ~count:1000 rat3 (fun (a, bq, c) ->
      Q.equal (Q.mul a (Q.add bq c)) (Q.add (Q.mul a bq) (Q.mul a c)))

let prop_inverse =
  QCheck.Test.make ~name:"a * (1/a) = 1 ; a + (-a) = 0" ~count:1000 rat (fun a ->
      Q.equal (Q.add a (Q.neg a)) Q.zero && (Q.is_zero a || Q.equal (Q.mul a (Q.inv a)) Q.one))

let prop_normalized =
  QCheck.Test.make ~name:"results always normalized" ~count:1000 (QCheck.pair rat rat) (fun (a, bq) ->
      let check t =
        Bigint.sign (Q.den t) = 1 && Bigint.equal (Bigint.gcd (Q.num t) (Q.den t)) (Bigint.gcd (Q.den t) (Q.num t))
        && (Q.is_zero t || Bigint.is_one (Bigint.gcd (Q.num t) (Q.den t)))
      in
      check (Q.add a bq) && check (Q.sub a bq) && check (Q.mul a bq))

let prop_floor_ceil_bracket =
  QCheck.Test.make ~name:"floor <= x <= ceil, gap < 1" ~count:1000 rat (fun a ->
      let f = Q.floor a and c = Q.ceil a in
      Q.compare f a <= 0 && Q.compare a c <= 0
      && Q.compare (Q.sub a f) Q.one < 0
      && Q.compare (Q.sub c a) Q.one < 0
      && Q.is_integer f && Q.is_integer c)

let prop_order_compatible =
  QCheck.Test.make ~name:"order compatible with addition" ~count:1000 rat3 (fun (a, bq, c) ->
      if Q.compare a bq <= 0 then Q.compare (Q.add a c) (Q.add bq c) <= 0 else true)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:1000 rat (fun a ->
      Q.equal a (Q.of_string (Q.to_string a)))

let prop_floor_shift =
  QCheck.Test.make ~name:"floor(x + n) = floor(x) + n for integer n" ~count:1000
    (QCheck.pair rat (QCheck.int_range (-50) 50))
    (fun (x, n) ->
      Q.equal (Q.floor (Q.add x (Q.of_int n))) (Q.add (Q.floor x) (Q.of_int n)))

let prop_abs_sign =
  QCheck.Test.make ~name:"x = sign(x) * |x|; |x| >= 0" ~count:1000 rat (fun x ->
      Q.equal x (Q.mul (Q.of_int (Q.sign x)) (Q.abs x)) && Q.compare (Q.abs x) Q.zero >= 0)

let prop_min_max =
  QCheck.Test.make ~name:"min + max = x + y" ~count:1000 (QCheck.pair rat rat) (fun (x, y) ->
      Q.equal (Q.add (Q.min x y) (Q.max x y)) (Q.add x y))

(* -- representation tiers ------------------------------------------------ *)

(* Values around the points where native arithmetic stops being safe:
   2^30 and 2^31 (where a sum of two products stops fitting 62 bits),
   max_int/2 (where a sum of two overflows), max_int and min_int+1 (the
   widest Small values), plus zero and Big values past the native
   range. The operands of one case share an anchor, so every component
   sits at the same boundary at once; a quarter of the pairs share a
   denominator. *)
let anchor_gen = QCheck.Gen.oneofl [ 1 lsl 30; 1 lsl 31; max_int / 2; max_int ]

(* within 2 of [anchor] (at most max_int), either sign *)
let near_gen anchor =
  QCheck.Gen.map2
    (fun k neg ->
      let m = if anchor = max_int then anchor - abs k else anchor + k in
      if neg then -m else m)
    (QCheck.Gen.int_range (-2) 2) QCheck.Gen.bool

let rat_near anchor =
  let open QCheck.Gen in
  let near = near_gen anchor and den = map abs (near_gen anchor) in
  let big =
    map2 (fun n d -> Q.make (Bigint.mul (Bigint.of_int n) (Bigint.of_int max_int)) (Bigint.of_int d)) near den
  in
  frequency
    [ (4, map2 q near den); (2, map (fun n -> q n 1) near); (1, map2 q (int_range (-1000) 1000) den);
      (1, map2 q near (int_range 1 1000)); (1, return Q.zero); (1, big) ]

let wide_gen = QCheck.Gen.(anchor_gen >>= rat_near)

let wide_pair_gen =
  let open QCheck.Gen in
  anchor_gen >>= fun a ->
  let same_den = map3 (fun x y d -> (q x d, q y d)) (near_gen a) (near_gen a) (map abs (near_gen a)) in
  frequency [ (3, pair (rat_near a) (rat_near a)); (1, same_den) ]

let wide_triple_gen = QCheck.Gen.(anchor_gen >>= fun a -> triple (rat_near a) (rat_near a) (rat_near a))
let wide = QCheck.make wide_gen ~print:Q.to_string
let wide_pair = QCheck.make wide_pair_gen ~print:QCheck.Print.(pair Q.to_string Q.to_string)

let wide3 =
  QCheck.make wide_triple_gen ~print:QCheck.Print.(triple Q.to_string Q.to_string Q.to_string)

(* Canonical: den > 0, lowest terms, and the representation a fresh
   normalization picks (equality is structural, so a value stuck in the
   wrong tier compares unequal to its renormalized self). *)
let canonical r =
  let n = Q.num r and d = Q.den r in
  Bigint.sign d > 0 && Bigint.is_one (Bigint.gcd n d) && Q.equal r (Q.make n d)

(* [r] is canonical and equals [n/d] (d <> 0, any sign), by
   cross-multiplication in Bigint only. *)
let agrees r (n, d) = canonical r && Bigint.equal (Bigint.mul (Q.num r) d) (Bigint.mul n (Q.den r))

let prop_wide_add_sub =
  QCheck.Test.make ~name:"wide: add/sub agree with Bigint, canonical" ~count:3000 wide_pair
    (fun (a, b) ->
      let open Bigint in
      let an = Q.num a and ad = Q.den a and bn = Q.num b and bd = Q.den b in
      agrees (Q.add a b) ((an * bd) + (bn * ad), ad * bd)
      && agrees (Q.sub a b) ((an * bd) - (bn * ad), ad * bd))

let prop_wide_mul_div =
  QCheck.Test.make ~name:"wide: mul/div agree with Bigint, canonical" ~count:3000 wide_pair
    (fun (a, b) ->
      let open Bigint in
      let an = Q.num a and ad = Q.den a and bn = Q.num b and bd = Q.den b in
      agrees (Q.mul a b) (an * bn, ad * bd)
      && (Q.is_zero b || agrees (Q.div a b) (an * bd, ad * bn)))

let prop_wide_submul =
  QCheck.Test.make ~name:"wide: submul agrees with Bigint, canonical" ~count:3000 wide3
    (fun (a, b, c) ->
      let open Bigint in
      let an = Q.num a and ad = Q.den a in
      let bn = Q.num b and bd = Q.den b and cn = Q.num c and cd = Q.den c in
      agrees (Q.submul a b c) ((an * bd * cd) - (bn * cn * ad), ad * bd * cd))

let prop_wide_compare =
  QCheck.Test.make ~name:"wide: compare agrees with Bigint" ~count:3000 wide_pair (fun (a, b) ->
      let sgn x = Stdlib.compare x 0 in
      let want = sgn (Bigint.compare (Bigint.mul (Q.num a) (Q.den b)) (Bigint.mul (Q.num b) (Q.den a))) in
      sgn (Q.compare a b) = want && sgn (Q.compare b a) = -want && Q.compare a a = 0)

let prop_wide_abs_neg =
  QCheck.Test.make ~name:"wide: abs/neg agree with Bigint, canonical" ~count:3000 wide (fun a ->
      agrees (Q.neg a) (Bigint.neg (Q.num a), Q.den a)
      && agrees (Q.abs a) (Bigint.abs (Q.num a), Q.den a))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_field_assoc; prop_distributive; prop_inverse; prop_normalized; prop_floor_ceil_bracket;
      prop_order_compatible; prop_string_roundtrip; prop_floor_shift; prop_abs_sign; prop_min_max;
      prop_wide_add_sub; prop_wide_mul_div; prop_wide_submul; prop_wide_compare; prop_wide_abs_neg ]

let () =
  Alcotest.run "rational"
    [ ( "unit",
        [ Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "to_int" `Quick test_to_int;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "of_float" `Quick test_of_float ] );
      ("properties", props) ]

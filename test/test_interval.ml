(* Unit tests for Sekitei_util.Interval: construction, membership,
   arithmetic, satisfiability, cutpoints. *)

module I = Sekitei_util.Interval

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let ivl = Alcotest.testable (fun fmt i -> I.pp fmt i) I.equal

let test_make_basic () =
  let i = I.make 1. 5. in
  check_float "lo" 1. (I.lo i);
  check_float "hi" 5. (I.hi i)

let test_make_unbounded () =
  let i = I.make 3. Float.infinity in
  check_bool "hi infinite" true (Float.is_finite (I.hi i) = false);
  check_bool "not a point" false (I.is_point i)

let test_make_empty_raises () =
  Alcotest.check_raises "hi <= lo" I.Empty_interval (fun () ->
      ignore (I.make 5. 5.));
  Alcotest.check_raises "reversed" I.Empty_interval (fun () ->
      ignore (I.make 5. 1.));
  Alcotest.check_raises "nan" I.Empty_interval (fun () ->
      ignore (I.make Float.nan 1.));
  Alcotest.check_raises "infinite lo" I.Empty_interval (fun () ->
      ignore (I.make Float.infinity Float.infinity))

let test_point () =
  let p = I.point 7. in
  check_bool "is point" true (I.is_point p);
  check_bool "mem itself" true (I.mem 7. p);
  check_bool "not mem other" false (I.mem 7.1 p)

let test_point_infinite_raises () =
  Alcotest.check_raises "point inf" I.Empty_interval (fun () ->
      ignore (I.point Float.infinity))

let test_full () =
  check_bool "0 in full" true (I.mem 0. I.full);
  check_bool "1e300 in full" true (I.mem 1e300 I.full);
  check_bool "neg not in full" false (I.mem (-1.) I.full)

let test_mem_half_open () =
  let i = I.make 2. 4. in
  check_bool "lo included" true (I.mem 2. i);
  check_bool "mid included" true (I.mem 3. i);
  check_bool "hi excluded" false (I.mem 4. i);
  check_bool "below" false (I.mem 1.9 i)

let test_inter () =
  Alcotest.(check (option ivl))
    "overlap" (Some (I.make 3. 4.))
    (I.inter (I.make 1. 4.) (I.make 3. 6.));
  Alcotest.(check (option ivl)) "disjoint" None (I.inter (I.make 1. 2.) (I.make 3. 4.));
  Alcotest.(check (option ivl))
    "touching half-open" None
    (I.inter (I.make 1. 3.) (I.make 3. 4.));
  Alcotest.(check (option ivl))
    "point inside" (Some (I.point 2.))
    (I.inter (I.point 2.) (I.make 1. 3.));
  Alcotest.(check (option ivl))
    "point on lo boundary" (Some (I.point 1.))
    (I.inter (I.point 1.) (I.make 1. 3.))

let test_hull () =
  Alcotest.check ivl "hull" (I.make 1. 6.) (I.hull (I.make 1. 2.) (I.make 5. 6.))

let test_subset () =
  check_bool "subset" true (I.subset (I.make 2. 3.) (I.make 1. 4.));
  check_bool "not subset" false (I.subset (I.make 0. 3.) (I.make 1. 4.));
  check_bool "self" true (I.subset (I.make 1. 4.) (I.make 1. 4.))

let test_add () =
  Alcotest.check ivl "add" (I.make 4. 6.) (I.add (I.make 1. 2.) (I.make 3. 4.));
  let p = I.add (I.point 1.) (I.point 2.) in
  check_bool "points add to point" true (I.is_point p);
  check_float "point sum" 3. (I.lo p)

let test_sub () =
  let d = I.sub (I.make 5. 7.) (I.point 2.) in
  check_float "sub lo" 3. (I.lo d);
  check_float "sub hi" 5. (I.hi d);
  (* enclosure may span negatives *)
  let d2 = I.sub (I.make 0. 1.) (I.make 0. 1.) in
  check_float "sub self lo" (-1.) (I.lo d2);
  check_float "sub self hi" 1. (I.hi d2)

let test_scale () =
  Alcotest.check ivl "scale 2" (I.make 2. 4.) (I.scale 2. (I.make 1. 2.));
  check_bool "scale 0 is point" true (I.is_point (I.scale 0. (I.make 1. 2.)));
  Alcotest.check ivl "scale unbounded"
    (I.make 2. Float.infinity)
    (I.scale 2. (I.make 1. Float.infinity));
  Alcotest.check_raises "negative scale"
    (Invalid_argument "Interval.scale: negative factor") (fun () ->
      ignore (I.scale (-1.) I.full))

let test_min_max_pointwise () =
  Alcotest.check ivl "min_" (I.make 1. 3.) (I.min_ (I.make 1. 5.) (I.make 2. 3.));
  Alcotest.check ivl "max_" (I.make 2. 5.) (I.max_ (I.make 1. 5.) (I.make 2. 3.))

let test_sat_ge () =
  check_bool "interval reaches" true (I.sat_ge (I.make 0. 100.) 90.);
  check_bool "half-open misses hi" false (I.sat_ge (I.make 70. 90.) 90.);
  check_bool "point ge" true (I.sat_ge (I.point 90.) 90.);
  check_bool "point below" false (I.sat_ge (I.point 89.) 90.)

let test_sat_le () =
  check_bool "lo below" true (I.sat_le (I.make 0. 100.) 50.);
  check_bool "lo at" true (I.sat_le (I.make 50. 100.) 50.);
  check_bool "lo above" false (I.sat_le (I.make 51. 100.) 50.)

let test_sat_eq () =
  check_bool "overlapping sat" true (I.sat_eq (I.make 0. 10.) (I.make 5. 20.));
  check_bool "disjoint unsat" false (I.sat_eq (I.make 0. 5.) (I.make 6. 20.))

let test_of_cutpoints () =
  let levels = I.of_cutpoints [ 30.; 70. ] in
  Alcotest.(check int) "three levels" 3 (List.length levels);
  Alcotest.check ivl "first" (I.make 0. 30.) (List.nth levels 0);
  Alcotest.check ivl "second" (I.make 30. 70.) (List.nth levels 1);
  Alcotest.check ivl "third" (I.make 70. Float.infinity) (List.nth levels 2)

let test_of_cutpoints_empty () =
  Alcotest.(check int) "single full level" 1 (List.length (I.of_cutpoints []))

let test_of_cutpoints_invalid () =
  Alcotest.check_raises "not increasing"
    (Invalid_argument "Interval.of_cutpoints: not strictly increasing")
    (fun () -> ignore (I.of_cutpoints [ 70.; 30. ]));
  Alcotest.check_raises "zero cutpoint"
    (Invalid_argument "Interval.of_cutpoints: not strictly increasing")
    (fun () -> ignore (I.of_cutpoints [ 0.; 30. ]))

let test_of_points () =
  Alcotest.check ivl "hull of points" (I.make 1. 9.) (I.of_points [ 3.; 1.; 9. ]);
  check_bool "single point" true (I.is_point (I.of_points [ 4. ]));
  Alcotest.check ivl "with infinity"
    (I.make 2. Float.infinity)
    (I.of_points [ 2.; Float.infinity ])

let test_to_string () =
  Alcotest.(check string) "half open" "[1,2)" (I.to_string (I.make 1. 2.));
  Alcotest.(check string) "unbounded" "[1,inf)"
    (I.to_string (I.make 1. Float.infinity));
  Alcotest.(check string) "point" "{3}" (I.to_string (I.point 3.))

let test_cutpoints_partition () =
  (* Every non-negative value falls in exactly one level. *)
  let levels = I.of_cutpoints [ 30.; 70.; 90.; 100. ] in
  List.iter
    (fun x ->
      let hits = List.length (List.filter (I.mem x) levels) in
      Alcotest.(check int) (Printf.sprintf "x=%g in one level" x) 1 hits)
    [ 0.; 29.9; 30.; 69.; 70.; 89.9; 90.; 99.; 100.; 1e6 ]

let suite =
  [
    ("make basic", `Quick, test_make_basic);
    ("make unbounded", `Quick, test_make_unbounded);
    ("make empty raises", `Quick, test_make_empty_raises);
    ("point", `Quick, test_point);
    ("point infinite raises", `Quick, test_point_infinite_raises);
    ("full", `Quick, test_full);
    ("mem half-open", `Quick, test_mem_half_open);
    ("inter", `Quick, test_inter);
    ("hull", `Quick, test_hull);
    ("subset", `Quick, test_subset);
    ("add", `Quick, test_add);
    ("sub", `Quick, test_sub);
    ("scale", `Quick, test_scale);
    ("min/max pointwise", `Quick, test_min_max_pointwise);
    ("sat_ge", `Quick, test_sat_ge);
    ("sat_le", `Quick, test_sat_le);
    ("sat_eq", `Quick, test_sat_eq);
    ("of_cutpoints", `Quick, test_of_cutpoints);
    ("of_cutpoints empty", `Quick, test_of_cutpoints_empty);
    ("of_cutpoints invalid", `Quick, test_of_cutpoints_invalid);
    ("of_points", `Quick, test_of_points);
    ("to_string", `Quick, test_to_string);
    ("cutpoints partition", `Quick, test_cutpoints_partition);
  ]

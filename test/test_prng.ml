(* Unit tests for Sekitei_util.Prng: determinism, ranges, shuffling. *)

module Prng = Sekitei_util.Prng

let test_determinism () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_different_seeds () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  Alcotest.(check bool) "different streams" false (Prng.next a = Prng.next b)

let test_int_range () =
  let t = Prng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Prng.int t 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done

let test_int_bound_one () =
  let t = Prng.create ~seed:7L in
  for _ = 1 to 10 do
    Alcotest.(check int) "bound 1 gives 0" 0 (Prng.int t 1)
  done

let test_int_invalid () =
  let t = Prng.create ~seed:7L in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int t 0))

let test_int_covers () =
  (* All residues appear over enough draws. *)
  let t = Prng.create ~seed:9L in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.int t 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_float_range () =
  let t = Prng.create ~seed:11L in
  for _ = 1 to 1000 do
    let v = Prng.float t 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (v >= 0. && v < 3.5)
  done

let test_bool_probability () =
  let t = Prng.create ~seed:13L in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Prng.bool t 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (rate > 0.25 && rate < 0.35)

let test_shuffle_permutation () =
  let t = Prng.create ~seed:19L in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_shuffle_deterministic () =
  let mk () =
    let t = Prng.create ~seed:23L in
    let arr = Array.init 20 Fun.id in
    Prng.shuffle t arr;
    arr
  in
  Alcotest.(check (array int)) "same seed, same shuffle" (mk ()) (mk ())

let test_sample () =
  let t = Prng.create ~seed:31L in
  let s = Prng.sample t 3 [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "size" 3 (List.length s);
  Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare s));
  List.iter
    (fun x -> Alcotest.(check bool) "drawn from source" true (List.mem x [ 1; 2; 3; 4; 5 ]))
    s;
  Alcotest.check_raises "too many" (Invalid_argument "Prng.sample: k > length")
    (fun () -> ignore (Prng.sample t 6 [ 1; 2 ]))

let test_split_independent () =
  let t = Prng.create ~seed:37L in
  let child = Prng.split t in
  (* Child stream differs from the parent's continuation. *)
  Alcotest.(check bool) "split differs" false (Prng.next child = Prng.next t)

let test_int_nonnegative_stress () =
  (* Regression: Int64->int truncation used to go negative. *)
  let t = Prng.create ~seed:0xDEADBEEFL in
  for _ = 1 to 100_000 do
    let v = Prng.int t 1_000_000 in
    if v < 0 then Alcotest.fail "negative draw"
  done

let suite =
  [
    ("determinism", `Quick, test_determinism);
    ("different seeds", `Quick, test_different_seeds);
    ("int range", `Quick, test_int_range);
    ("int bound one", `Quick, test_int_bound_one);
    ("int invalid", `Quick, test_int_invalid);
    ("int covers", `Quick, test_int_covers);
    ("float range", `Quick, test_float_range);
    ("bool probability", `Quick, test_bool_probability);
    ("shuffle permutation", `Quick, test_shuffle_permutation);
    ("shuffle deterministic", `Quick, test_shuffle_deterministic);
    ("sample", `Quick, test_sample);
    ("split independent", `Quick, test_split_independent);
    ("int non-negative stress", `Quick, test_int_nonnegative_stress);
  ]

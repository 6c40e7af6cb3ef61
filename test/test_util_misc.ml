(* Unit tests for Union_find, Running_stats, Ascii_table, Timer and
   Domain_pool. *)

module UF = Sekitei_util.Union_find
module RS = Sekitei_util.Running_stats
module Table = Sekitei_util.Ascii_table
module Timer = Sekitei_util.Timer
module Pool = Sekitei_util.Domain_pool

(* ---------------- Union_find ---------------- *)

let test_uf_singletons () =
  let t = UF.create 5 in
  Alcotest.(check int) "count" 5 (UF.count t);
  for i = 0 to 4 do
    Alcotest.(check int) "own root" i (UF.find t i)
  done

let test_uf_union () =
  let t = UF.create 4 in
  Alcotest.(check bool) "first union merges" true (UF.union t 0 1);
  Alcotest.(check bool) "repeat union no-op" false (UF.union t 0 1);
  Alcotest.(check bool) "same" true (UF.same t 0 1);
  Alcotest.(check bool) "not same" false (UF.same t 0 2);
  Alcotest.(check int) "count after one union" 3 (UF.count t)

let test_uf_transitive () =
  let t = UF.create 6 in
  ignore (UF.union t 0 1);
  ignore (UF.union t 1 2);
  ignore (UF.union t 3 4);
  Alcotest.(check bool) "transitive" true (UF.same t 0 2);
  Alcotest.(check bool) "separate component" false (UF.same t 0 3);
  ignore (UF.union t 2 3);
  Alcotest.(check bool) "merged" true (UF.same t 0 4);
  Alcotest.(check int) "two components left" 2 (UF.count t)

(* ---------------- Running_stats ---------------- *)

let test_rs_basic () =
  let s = RS.of_list [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check int) "count" 4 (RS.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (RS.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (RS.min s);
  Alcotest.(check (float 1e-9)) "max" 4. (RS.max s);
  Alcotest.(check (float 1e-9)) "total" 10. (RS.total s);
  (* Sample variance of 1..4 = 5/3 *)
  Alcotest.(check (float 1e-9)) "variance" (5. /. 3.) (RS.variance s)

let test_rs_constant () =
  let s = RS.of_list [ 7.; 7.; 7. ] in
  Alcotest.(check (float 1e-9)) "variance of constant" 0. (RS.variance s);
  Alcotest.(check (float 1e-9)) "stddev of constant" 0. (RS.stddev s)

let test_rs_single () =
  let s = RS.of_list [ 5. ] in
  Alcotest.(check (float 1e-9)) "variance of single" 0. (RS.variance s)

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check (float 1e-9)) "median" 3. (RS.percentile 0.5 xs);
  Alcotest.(check (float 1e-9)) "p0" 1. (RS.percentile 0. xs);
  Alcotest.(check (float 1e-9)) "p100" 5. (RS.percentile 1. xs);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2. (RS.percentile 0.25 xs)

let test_percentile_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Running_stats.percentile: empty") (fun () ->
      ignore (RS.percentile 0.5 []));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Running_stats.percentile: p not in [0,1]") (fun () ->
      ignore (RS.percentile 1.5 [ 1. ]))

(* ---------------- Ascii_table ---------------- *)

let test_table_render () =
  let out = Table.render_rows [ "a"; "b" ] [ [ "1"; "22" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "has header" true
    (String.length out > 0
    && String.split_on_char '\n' out |> List.exists (fun l ->
           let has_a =
             String.length l > 0
             && String.index_opt l 'a' <> None
             && String.index_opt l 'b' <> None
           in
           has_a));
  (* All non-empty lines have equal width. *)
  let widths =
    String.split_on_char '\n' out
    |> List.filter (fun l -> l <> "")
    |> List.map String.length
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "uniform width" 1 (List.length widths)

let test_table_arity_mismatch () =
  let t = Table.create [ "x"; "y" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Ascii_table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "only one" ])

let test_table_alignment () =
  let out =
    Table.render_rows ~aligns:[ Table.Right ] [ "n" ] [ [ "1" ]; [ "100" ] ]
  in
  (* The right-aligned "1" is padded on the left. *)
  Alcotest.(check bool) "right aligned" true
    (String.split_on_char '\n' out |> List.exists (fun l ->
         Sekitei_spec.Str_split.split_once l "|   1 |" <> None))

let test_float_cell () =
  Alcotest.(check string) "integer compact" "63" (Table.float_cell 63.);
  Alcotest.(check string) "fraction" "72.85" (Table.float_cell 72.85)

(* ---------------- Timer ---------------- *)

let test_timer_monotone () =
  let t = Timer.start () in
  let x = ref 0 in
  for i = 1 to 100_000 do
    x := !x + i
  done;
  Alcotest.(check bool) "elapsed non-negative" true (Timer.elapsed_ms t >= 0.)

let test_timer_time () =
  let result, ms = Timer.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 result;
  Alcotest.(check bool) "ms non-negative" true (ms >= 0.)

(* ---------------- Domain_pool ---------------- *)

exception Boom of int

let test_pool_preserves_order () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun x -> (2 * x) + 1) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "ordered results with jobs=%d" jobs)
        expect
        (Pool.map ~jobs (fun x -> (2 * x) + 1) xs))
    [ 1; 2; 4; 7 ]

let test_pool_jobs_one_sequential () =
  (* jobs=1 must be a plain List.map on the calling domain: effects run
     left to right, exactly once each. *)
  let trace = ref [] in
  let out =
    Pool.map ~jobs:1
      (fun x ->
        trace := x :: !trace;
        x * x)
      [ 3; 1; 4; 1; 5 ]
  in
  Alcotest.(check (list int)) "results" [ 9; 1; 16; 1; 25 ] out;
  Alcotest.(check (list int)) "left-to-right effects" [ 3; 1; 4; 1; 5 ]
    (List.rev !trace)

let test_pool_empty_and_clamp () =
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:8 Fun.id []);
  Alcotest.(check (list int))
    "jobs clamped to list length" [ 10 ]
    (Pool.map ~jobs:8 (fun x -> 10 * x) [ 1 ]);
  Alcotest.(check bool) "default jobs positive" true (Pool.default_jobs () >= 1)

let test_pool_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        Pool.map ~jobs
          (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom x ->
          (* The earliest-index failure wins regardless of domain
             scheduling. *)
          Alcotest.(check int)
            (Printf.sprintf "earliest failure with jobs=%d" jobs)
            2 x)
    [ 1; 3 ]

let suite =
  [
    ("union-find singletons", `Quick, test_uf_singletons);
    ("pool preserves order", `Quick, test_pool_preserves_order);
    ("pool jobs=1 sequential", `Quick, test_pool_jobs_one_sequential);
    ("pool empty and clamp", `Quick, test_pool_empty_and_clamp);
    ("pool exception propagates", `Quick, test_pool_exception_propagates);
    ("union-find union", `Quick, test_uf_union);
    ("union-find transitive", `Quick, test_uf_transitive);
    ("stats basic", `Quick, test_rs_basic);
    ("stats constant", `Quick, test_rs_constant);
    ("stats single", `Quick, test_rs_single);
    ("percentile", `Quick, test_percentile);
    ("percentile invalid", `Quick, test_percentile_invalid);
    ("table render", `Quick, test_table_render);
    ("table arity mismatch", `Quick, test_table_arity_mismatch);
    ("table alignment", `Quick, test_table_alignment);
    ("float cell", `Quick, test_float_cell);
    ("timer monotone", `Quick, test_timer_monotone);
    ("timer time", `Quick, test_timer_time);
  ]

(* Unit tests for Sekitei_expr.Expr: evaluation, interval evaluation,
   satisfiability, monotonicity analysis, simplification, parsing and
   printing. *)

module E = Sekitei_expr.Expr
module I = Sekitei_util.Interval

let env_of bindings v =
  match List.assoc_opt v bindings with
  | Some x -> x
  | None -> raise (E.Unbound_variable v)

let ienv_of bindings v =
  match List.assoc_opt v bindings with
  | Some x -> x
  | None -> raise (E.Unbound_variable v)

let check_eval msg expected expr bindings =
  Alcotest.(check (float 1e-9)) msg expected (E.eval ~env:(env_of bindings) expr)

(* ---------------- point evaluation ---------------- *)

let test_eval_arith () =
  check_eval "const" 5. (E.Const 5.) [];
  check_eval "var" 3. (E.Var "x") [ ("x", 3.) ];
  check_eval "add" 7. (E.parse "x + 4") [ ("x", 3.) ];
  check_eval "sub" (-1.) (E.parse "x - 4") [ ("x", 3.) ];
  check_eval "mul" 12. (E.parse "x * 4") [ ("x", 3.) ];
  check_eval "div" 0.75 (E.parse "x / 4") [ ("x", 3.) ];
  check_eval "neg" (-3.) (E.parse "-x") [ ("x", 3.) ];
  check_eval "min" 3. (E.parse "min(x, 4)") [ ("x", 3.) ];
  check_eval "max" 4. (E.parse "max(x, 4)") [ ("x", 3.) ]

let test_eval_precedence () =
  check_eval "mul before add" 14. (E.parse "2 + 3 * 4") [];
  check_eval "parens" 20. (E.parse "(2 + 3) * 4") [];
  check_eval "left assoc sub" (-5.) (E.parse "2 - 3 - 4") [];
  check_eval "div chain" 2. (E.parse "16 / 4 / 2") []

let test_eval_paper_formulas () =
  (* The Merger specification from Figure 2. *)
  let bindings = [ ("T.ibw", 63.); ("I.ibw", 27.) ] in
  check_eval "merger cpu" 18. (E.parse "(T.ibw + I.ibw) / 5") bindings;
  check_eval "merger output" 90. (E.parse "T.ibw + I.ibw") bindings;
  Alcotest.(check bool) "merger ratio holds" true
    (E.holds ~env:(env_of bindings) (E.parse_cond "T.ibw * 3 == I.ibw * 7"))

let test_eval_unbound () =
  Alcotest.check_raises "unbound" (E.Unbound_variable "y") (fun () ->
      ignore (E.eval ~env:(env_of []) (E.Var "y")))

let test_eval_div_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (E.eval ~env:(env_of []) (E.parse "1 / 0")))

let test_holds () =
  let env = env_of [ ("x", 5.) ] in
  Alcotest.(check bool) "ge true" true (E.holds ~env (E.parse_cond "x >= 5"));
  Alcotest.(check bool) "gt false" false (E.holds ~env (E.parse_cond "x > 5"));
  Alcotest.(check bool) "le true" true (E.holds ~env (E.parse_cond "x <= 5"));
  Alcotest.(check bool) "lt false" false (E.holds ~env (E.parse_cond "x < 5"));
  Alcotest.(check bool) "and" true (E.holds ~env (E.parse_cond "x >= 1 && x <= 9"));
  Alcotest.(check bool) "or" true (E.holds ~env (E.parse_cond "x < 0 || x > 4"));
  Alcotest.(check bool) "eq tolerant" true
    (E.holds ~env:(env_of [ ("x", 0.1 +. 0.2) ]) (E.parse_cond "x == 0.3"))

(* ---------------- interval evaluation ---------------- *)

let test_interval_linear () =
  let env = ienv_of [ ("x", I.make 10. 20.) ] in
  let r = E.eval_interval ~env (E.parse "x * 2 + 1") in
  Alcotest.(check (float 1e-9)) "lo" 21. (I.lo r);
  Alcotest.(check (float 1e-9)) "hi" 41. (I.hi r)

let test_interval_min_capacity () =
  (* The paper's capacity capping: min(M.ibw, 70) *)
  let env = ienv_of [ ("M.ibw", I.make 90. 100.) ] in
  let r = E.eval_interval ~env (E.parse "min(M.ibw, 70)") in
  Alcotest.(check (float 1e-9)) "capped lo" 70. (I.lo r);
  Alcotest.(check (float 1e-9)) "capped hi" 70. (I.hi r)

let test_interval_unbounded () =
  let env = ienv_of [ ("x", I.make 100. Float.infinity) ] in
  let r = E.eval_interval ~env (E.parse "x / 5") in
  Alcotest.(check (float 1e-9)) "lo" 20. (I.lo r);
  Alcotest.(check bool) "hi infinite" false (Float.is_finite (I.hi r))

let test_interval_div_by_zero_interval () =
  let env = ienv_of [ ("x", I.make 0. 1.) ] in
  Alcotest.check_raises "divisor spans zero" Division_by_zero (fun () ->
      ignore (E.eval_interval ~env (E.parse "5 / x")))

let test_interval_encloses_samples () =
  (* Soundness: sampled point evaluations always land inside the interval
     enclosure. *)
  let exprs =
    [
      "x + y"; "x - y"; "x * y"; "min(x, y)"; "max(x, y)"; "x * 7 / 10";
      "(x + y) / 5"; "min(x, 70) + max(y, 3)";
    ]
  in
  let ix = I.make 2. 9. and iy = I.make 1. 4. in
  let ienv = ienv_of [ ("x", ix); ("y", iy) ] in
  List.iter
    (fun text ->
      let e = E.parse text in
      let enclosure = E.eval_interval ~env:ienv e in
      List.iter
        (fun fx ->
          List.iter
            (fun fy ->
              let v = E.eval ~env:(env_of [ ("x", fx); ("y", fy) ]) e in
              if not (I.lo enclosure -. 1e-9 <= v && v <= I.hi enclosure +. 1e-9)
              then
                Alcotest.failf "%s: %g outside %s" text v (I.to_string enclosure))
            [ 1.; 2.; 3.99 ])
        [ 2.; 5.; 8.99 ])
    exprs

(* ---------------- satisfiability ---------------- *)

let test_sat_half_open () =
  (* [70,90) cannot satisfy >= 90 but [90,100) can - the exact boundary
     behaviour the client's bandwidth demand relies on. *)
  let sat cond lo hi =
    E.sat ~env:(ienv_of [ ("x", I.make lo hi) ]) (E.parse_cond cond)
  in
  Alcotest.(check bool) "[70,90) vs >=90" false (sat "x >= 90" 70. 90.);
  Alcotest.(check bool) "[90,100) vs >=90" true (sat "x >= 90" 90. 100.);
  Alcotest.(check bool) "[0,100) vs >=90" true (sat "x >= 90" 0. 100.);
  Alcotest.(check bool) "[100,inf) vs <=90" false (sat "x <= 90" 100. Float.infinity)

let test_sat_eq_ratio () =
  let env l_t l_i =
    ienv_of [ ("T.ibw", l_t); ("I.ibw", l_i) ]
  in
  let cond = E.parse_cond "T.ibw * 3 == I.ibw * 7" in
  Alcotest.(check bool) "matched levels sat" true
    (E.sat ~env:(env (I.make 63. 70.) (I.make 27. 30.)) cond);
  Alcotest.(check bool) "mismatched levels unsat" false
    (E.sat ~env:(env (I.make 63. 70.) (I.make 0. 27.)) cond)

let test_sat_conjunction () =
  let env = ienv_of [ ("x", I.make 0. 10.) ] in
  Alcotest.(check bool) "conjunction" true
    (E.sat ~env (E.parse_cond "x >= 5 && x <= 20"));
  Alcotest.(check bool) "impossible branch" false
    (E.sat ~env (E.parse_cond "x >= 15 && x <= 20"));
  Alcotest.(check bool) "disjunction rescues" true
    (E.sat ~env (E.parse_cond "x >= 15 || x <= 20"))

(* ---------------- analysis ---------------- *)

let test_vars () =
  Alcotest.(check (list string)) "vars in order" [ "b"; "a"; "c" ]
    (E.vars (E.parse "b + a * b - c"));
  Alcotest.(check (list string)) "cond vars" [ "x"; "y" ]
    (E.cond_vars (E.parse_cond "x >= 1 && y < x"))

let mono = Alcotest.testable
    (fun fmt m ->
      Format.pp_print_string fmt
        (match m with
        | E.Increasing -> "inc"
        | E.Decreasing -> "dec"
        | E.Constant -> "const"
        | E.Unknown -> "unknown"))
    ( = )

let test_monotonicity () =
  let m text v = E.monotonicity (E.parse text) v in
  Alcotest.check mono "linear inc" E.Increasing (m "x * 2 + 1" "x");
  Alcotest.check mono "neg dec" E.Decreasing (m "-x" "x");
  Alcotest.check mono "sub dec in rhs" E.Decreasing (m "10 - x" "x");
  Alcotest.check mono "absent const" E.Constant (m "y + 1" "x");
  Alcotest.check mono "min inc" E.Increasing (m "min(x, 70)" "x");
  Alcotest.check mono "div by const inc" E.Increasing (m "x / 5" "x");
  Alcotest.check mono "scaled by neg const" E.Decreasing (m "x * (0 - 2)" "x");
  Alcotest.check mono "x*x unknown" E.Unknown (m "x * x" "x");
  Alcotest.check mono "denominator unknown" E.Unknown (m "1 / x" "x")

let test_easier_when_lower () =
  let e text v = E.easier_when_lower (E.parse_cond text) v in
  Alcotest.(check (option bool)) "consumption constraint" (Some true)
    (e "30 >= x / 5" "x");
  Alcotest.(check (option bool)) "demand constraint" (Some false)
    (e "x >= 90" "x");
  Alcotest.(check (option bool)) "unrelated" (Some true) (e "y >= 3" "x");
  Alcotest.(check (option bool)) "equality undecidable" None
    (e "x == 30" "x")

let test_simplify () =
  let s text = E.to_string (E.simplify (E.parse text)) in
  Alcotest.(check string) "fold consts" "7" (s "3 + 4");
  Alcotest.(check string) "x + 0" "x" (s "x + 0");
  Alcotest.(check string) "1 * x" "x" (s "1 * x");
  Alcotest.(check string) "x * 0" "0" (s "x * 0");
  Alcotest.(check string) "x / 1" "x" (s "x / 1");
  Alcotest.(check string) "nested" "x" (s "(x + 0) * 1")

let test_simplify_preserves_value () =
  let exprs = [ "x * 2 + 0 * y"; "(x + 0) / 1"; "min(x, 3 + 4)"; "x - 0 + y * 1" ] in
  let env = env_of [ ("x", 2.5); ("y", 4.) ] in
  List.iter
    (fun text ->
      let e = E.parse text in
      Alcotest.(check (float 1e-9)) text (E.eval ~env e)
        (E.eval ~env (E.simplify e)))
    exprs

(* ---------------- parsing and printing ---------------- *)

let test_parse_identifiers () =
  Alcotest.(check string) "dotted" "M.ibw" (E.to_string (E.parse "M.ibw"));
  Alcotest.(check string) "underscore" "a_b" (E.to_string (E.parse "a_b"));
  (* min/max as plain identifiers still work when not applied *)
  Alcotest.(check string) "min as name" "min + 1" (E.to_string (E.parse "min + 1"))

let test_parse_errors () =
  let fails text = match E.parse text with
    | _ -> Alcotest.failf "expected parse error for %S" text
    | exception E.Parse_error _ -> ()
  in
  fails "";
  fails "1 +";
  fails "min(1)";
  fails "x ^ 2";
  fails "(1 + 2";
  fails "1 2"

let test_parse_cond_errors () =
  let fails text = match E.parse_cond text with
    | _ -> Alcotest.failf "expected parse error for %S" text
    | exception E.Parse_error _ -> ()
  in
  fails "x >";
  fails "x >= 1 &&";
  fails "x"

let test_roundtrip () =
  let exprs =
    [
      "x + y * z"; "(x + y) * z"; "min(x, 70) / 5"; "-x + 3"; "x - y - z";
      "x / y / z"; "max(min(x, y), 1 + 2)"; "1 + M.ibw / 10";
      (* exponent literals, as float_lit prints small constants *)
      "x * 1e-5"; "2e5 + x"; "1.5e+3 * y"; "min(x, 4.18e-05)";
      "y / 0.5 - min(x, 4.183358934262138e-05)"; "3E2";
    ]
  in
  List.iter
    (fun text ->
      let printed = E.to_string (E.parse text) in
      let reparsed = E.to_string (E.parse printed) in
      Alcotest.(check string) text printed reparsed)
    exprs

let test_cond_roundtrip () =
  let conds =
    [
      "x >= 90"; "x * 3 == y * 7"; "x >= 1 && y <= 2"; "x < 1 || y > 2";
      "(x >= 1 && y <= 2) || z == 3"; "true";
    ]
  in
  List.iter
    (fun text ->
      let printed = E.cond_to_string (E.parse_cond text) in
      let reparsed = E.cond_to_string (E.parse_cond printed) in
      Alcotest.(check string) text printed reparsed)
    conds

let test_roundtrip_semantics () =
  (* Printing then reparsing preserves evaluation, not just syntax. *)
  let env = env_of [ ("x", 3.); ("y", 5.); ("z", 2.) ] in
  List.iter
    (fun text ->
      let e = E.parse text in
      let e' = E.parse (E.to_string e) in
      Alcotest.(check (float 1e-9)) text (E.eval ~env e) (E.eval ~env e'))
    [ "x - y - z"; "x - (y - z)"; "x / y * z"; "x + y * z - 1"; "-x * y" ]

let suite =
  [
    ("eval arithmetic", `Quick, test_eval_arith);
    ("eval precedence", `Quick, test_eval_precedence);
    ("eval paper formulas", `Quick, test_eval_paper_formulas);
    ("eval unbound", `Quick, test_eval_unbound);
    ("eval div by zero", `Quick, test_eval_div_zero);
    ("holds", `Quick, test_holds);
    ("interval linear", `Quick, test_interval_linear);
    ("interval min capacity", `Quick, test_interval_min_capacity);
    ("interval unbounded", `Quick, test_interval_unbounded);
    ("interval div by zero", `Quick, test_interval_div_by_zero_interval);
    ("interval encloses samples", `Quick, test_interval_encloses_samples);
    ("sat half-open", `Quick, test_sat_half_open);
    ("sat ratio equality", `Quick, test_sat_eq_ratio);
    ("sat conjunction", `Quick, test_sat_conjunction);
    ("vars", `Quick, test_vars);
    ("monotonicity", `Quick, test_monotonicity);
    ("easier when lower", `Quick, test_easier_when_lower);
    ("simplify", `Quick, test_simplify);
    ("simplify preserves value", `Quick, test_simplify_preserves_value);
    ("parse identifiers", `Quick, test_parse_identifiers);
    ("parse errors", `Quick, test_parse_errors);
    ("parse cond errors", `Quick, test_parse_cond_errors);
    ("print/parse round-trip", `Quick, test_roundtrip);
    ("cond round-trip", `Quick, test_cond_roundtrip);
    ("round-trip semantics", `Quick, test_roundtrip_semantics);
  ]

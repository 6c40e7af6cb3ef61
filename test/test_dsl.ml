(* Unit tests for the specification DSL: parsing, error reporting,
   printing round-trips. *)

module Dsl = Sekitei_spec.Dsl
module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module T = Sekitei_network.Topology
module E = Sekitei_expr.Expr

let minimal =
  {|
interface S {
  property ibw degradable;
  cost 1 + ibw / 10;
  levels ibw: 10, 20;
}
component Src { provides S; effect S.ibw := 20; anchored; }
component Snk { requires S; condition S.ibw >= 10; cost 1; }
network {
  node a cpu 30;
  node b cpu 30;
  link a -- b lan lbw 100;
}
deploy {
  place Src on a;
  goal Snk on b;
}
|}

let parse text = Dsl.parse_document text

let test_minimal_parses () =
  let doc = parse minimal in
  Alcotest.(check int) "two interfaces... one" 1
    (List.length doc.Dsl.app.Model.interfaces);
  Alcotest.(check int) "two components" 2
    (List.length doc.Dsl.app.Model.components);
  Alcotest.(check bool) "topology present" true (doc.Dsl.topo <> None);
  Alcotest.(check int) "goal count" 1 (List.length doc.Dsl.app.Model.goals)

let test_network_details () =
  let doc = parse minimal in
  let topo = Option.get doc.Dsl.topo in
  Alcotest.(check int) "nodes" 2 (T.node_count topo);
  Alcotest.(check (float 0.)) "bw" 100. (T.link_resource topo 0 "lbw");
  Alcotest.(check string) "names resolve" "a" (T.get_node topo 0).T.node_name

let test_levels_parsed () =
  let doc = parse minimal in
  Alcotest.(check int) "levels" 3
    (List.length (Leveling.iface_levels doc.Dsl.leveling "S" "ibw"))

let test_anchored () =
  let doc = parse minimal in
  let src = Option.get (Model.find_component doc.Dsl.app "Src") in
  Alcotest.(check bool) "anchored" false src.Model.placeable;
  let snk = Option.get (Model.find_component doc.Dsl.app "Snk") in
  Alcotest.(check bool) "placeable" true snk.Model.placeable

let test_comments_ignored () =
  let doc = parse ("# leading comment\n" ^ minimal ^ "\n# trailing\n") in
  Alcotest.(check int) "components" 2 (List.length doc.Dsl.app.Model.components)

let test_available_goal () =
  let doc =
    parse
      (Sekitei_spec.Str_split.split_once minimal "goal Snk on b;"
      |> Option.get
      |> fun (a, b) -> a ^ "goal S.ibw >= 15 on b;" ^ b)
  in
  match doc.Dsl.app.Model.goals with
  | [ Model.Available ("S", "ibw", 1, v) ] ->
      Alcotest.(check (float 0.)) "threshold" 15. v
  | _ -> Alcotest.fail "expected Available goal"

let test_property_default_and_tag () =
  let doc =
    parse
      {|
interface X {
  property ibw upgradable;
  property lat = 3 neither;
  cost 1;
}
component C { requires X; cost 1; }
deploy { goal C on n0; }
|}
  in
  let x = Option.get (Model.find_iface doc.Dsl.app "X") in
  let lat = Option.get (Model.find_property x "lat") in
  Alcotest.(check (float 0.)) "default" 3. lat.Model.prop_default;
  Alcotest.(check bool) "tag neither" true (lat.Model.prop_tag = Model.Neither);
  let ibw = Option.get (Model.find_property x "ibw") in
  Alcotest.(check bool) "tag upgradable" true (ibw.Model.prop_tag = Model.Upgradable)

let test_top_level_link_levels () =
  let doc = parse (minimal ^ "\nlevels link.lbw: 31, 62;\n") in
  Alcotest.(check int) "link levels" 3
    (List.length (Leveling.link_levels doc.Dsl.leveling "lbw"))

let expect_error text =
  match Dsl.parse_document text with
  | _ -> Alcotest.failf "expected Dsl_error for %S" text
  | exception Dsl.Dsl_error _ -> ()

let test_errors () =
  expect_error "interface X {";
  expect_error "frobnicate Y { }";
  expect_error "interface X { property; }";
  expect_error "component C { requires }";
  expect_error "network { link a -- b lan; }";
  (* link before nodes *)
  expect_error "network { node a cpu 30; link a -- zz lan; }";
  expect_error "deploy { place X at n0; }";
  expect_error "stray statement;"

(* Malformed numbers and cutpoint lists are spec errors, never escaping
   [Failure] / [Invalid_argument] exceptions.  Each case edits one
   statement of [minimal] (which parses cleanly) and expects the error to
   name the offending construct. *)
let test_bad_numbers_reported () =
  let edit old by =
    match Sekitei_spec.Str_split.split_once minimal old with
    | Some (before, after) -> before ^ by ^ after
    | None -> Alcotest.failf "%S not in the minimal spec" old
  in
  let expect_mentioning what text =
    match Dsl.parse_document text with
    | _ -> Alcotest.failf "expected Dsl_error for %s" what
    | exception Dsl.Dsl_error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names it" what msg)
          true
          (Sekitei_spec.Str_split.split_once msg what <> None)
  in
  let prop = "property ibw degradable;" in
  expect_mentioning "property default" (edit prop "property ibw = fast;");
  expect_mentioning "property default"
    (edit prop "property ibw = 3x degradable;");
  expect_mentioning "property default" (edit prop "property ibw = nan;");
  let goal = "goal Snk on b;" in
  ignore (parse (edit goal "goal S.ibw >= 10 on b;"));
  expect_mentioning "goal value" (edit goal "goal S.ibw >= lots on b;");
  expect_mentioning "goal value" (edit goal "goal S.ibw >= nan on b;");
  let levels = "levels ibw: 10, 20;" in
  List.iter
    (fun cuts ->
      expect_mentioning "levels S.ibw"
        (edit levels ("levels ibw: " ^ cuts ^ ";")))
    [ "20, 10"; "10, 10"; "0, 10"; "10, inf" ];
  expect_mentioning "cutpoint" (edit levels "levels ibw: 10, nan;");
  expect_mentioning "levels link.lbw"
    (minimal ^ "\nlevels link.lbw: 62, 31;\n");
  expect_mentioning "levels node.cpu" (minimal ^ "\nlevels node.cpu: -5;\n");
  List.iter
    (fun v ->
      expect_mentioning "resource value"
        (edit "node a cpu 30;" ("node a cpu " ^ v ^ ";")))
    [ "nan"; "inf"; "-5" ]

let test_bad_expression_reported () =
  expect_error
    {|
interface X { property ibw; cost 1 +; }
component C { requires X; cost 1; }
deploy { goal C on n0; }
|}

let test_roundtrip_media () =
  (* The programmatic media app prints to DSL and reparses equivalently. *)
  let app = Sekitei_domains.Media.app ~server:0 ~client:1 () in
  let leveling = Sekitei_domains.Media.leveling Sekitei_domains.Media.C app in
  let topo = Sekitei_network.Generators.line_kinds [ T.Wan ] in
  let text = Dsl.print_document ~topo app leveling in
  let doc = Dsl.parse_document text in
  Alcotest.(check int) "interfaces" 4 (List.length doc.Dsl.app.Model.interfaces);
  Alcotest.(check int) "components" 6 (List.length doc.Dsl.app.Model.components);
  let topo2 = Option.get doc.Dsl.topo in
  Alcotest.(check int) "nodes" (T.node_count topo) (T.node_count topo2);
  (* and it still plans identically *)
  let o1 = Sekitei_core.Planner.plan (Sekitei_core.Planner.request topo app ~leveling) in
  let o2 = Sekitei_core.Planner.plan (Sekitei_core.Planner.request topo2 doc.Dsl.app ~leveling:doc.Dsl.leveling) in
  match (o1.Sekitei_core.Planner.result, o2.Sekitei_core.Planner.result) with
  | Ok p1, Ok p2 ->
      Alcotest.(check (float 1e-9)) "same cost bound"
        p1.Sekitei_core.Plan.cost_lb p2.Sekitei_core.Plan.cost_lb;
      Alcotest.(check int) "same length"
        (Sekitei_core.Plan.length p1) (Sekitei_core.Plan.length p2)
  | _ -> Alcotest.fail "round-trip changed the planning outcome"

let test_print_without_topo () =
  let app = Sekitei_domains.Media.app ~server:0 ~client:1 () in
  let text = Dsl.print_document app Leveling.empty in
  Alcotest.(check bool) "node ids printed as n<i>" true
    (Sekitei_spec.Str_split.split_once text "place Server on n0" <> None)

let test_expression_fidelity () =
  (* Parsed effects match the expected ASTs. *)
  let doc = parse minimal in
  let src = Option.get (Model.find_component doc.Dsl.app "Src") in
  match src.Model.effects with
  | [ ("S", "ibw", e) ] ->
      Alcotest.(check string) "const effect" "20" (E.to_string e)
  | _ -> Alcotest.fail "unexpected effects"

let suite =
  [
    ("minimal parses", `Quick, test_minimal_parses);
    ("network details", `Quick, test_network_details);
    ("levels parsed", `Quick, test_levels_parsed);
    ("anchored", `Quick, test_anchored);
    ("comments ignored", `Quick, test_comments_ignored);
    ("available goal", `Quick, test_available_goal);
    ("property default and tag", `Quick, test_property_default_and_tag);
    ("top-level link levels", `Quick, test_top_level_link_levels);
    ("errors", `Quick, test_errors);
    ("bad expression reported", `Quick, test_bad_expression_reported);
    ("bad numbers reported", `Quick, test_bad_numbers_reported);
    ("round-trip media", `Quick, test_roundtrip_media);
    ("print without topo", `Quick, test_print_without_topo);
    ("expression fidelity", `Quick, test_expression_fidelity);
  ]

(* Unit tests for Sekitei_spec: Model constructors, Leveling (cutpoints,
   propagation, tag analysis), Validate. *)

module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Validate = Sekitei_spec.Validate
module D = Sekitei_util.Diagnostic
module Media = Sekitei_domains.Media
module E = Sekitei_expr.Expr
module I = Sekitei_util.Interval
module G = Sekitei_network.Generators
module T = Sekitei_network.Topology

let ivl = Alcotest.testable (fun fmt i -> I.pp fmt i) I.equal

(* ---------------- model ---------------- *)

let test_iface_defaults () =
  let i = Model.iface ~properties:[ Model.property "ibw" ] "X" in
  Alcotest.(check string) "default transform" "min(ibw, link.lbw)"
    (E.to_string (List.assoc "ibw" i.Model.cross_transforms));
  Alcotest.(check string) "default consumption" "min(ibw, link.lbw)"
    (E.to_string (List.assoc "lbw" i.Model.cross_consumes));
  Alcotest.(check string) "default cost" "1 + ibw / 10"
    (E.to_string i.Model.cross_cost)

let test_iface_no_properties () =
  Alcotest.check_raises "needs a property"
    (Invalid_argument "Model.iface: at least one property required") (fun () ->
      ignore (Model.iface ~properties:[] "X"))

let test_component_defaults () =
  let c = Model.component "C" in
  Alcotest.(check bool) "placeable" true c.Model.placeable;
  Alcotest.(check (list string)) "no requires" [] c.Model.requires

let test_lookups () =
  let app = Media.app ~server:0 ~client:1 () in
  Alcotest.(check bool) "find iface" true (Model.find_iface app "M" <> None);
  Alcotest.(check bool) "missing iface" true (Model.find_iface app "Q" = None);
  Alcotest.(check bool) "find comp" true (Model.find_component app "Zip" <> None);
  let m = Option.get (Model.find_iface app "M") in
  Alcotest.(check string) "primary" "ibw" (Model.primary_property m).Model.prop_name;
  Alcotest.(check string) "qualified" "M.ibw" (Model.qualified "M" "ibw")

(* ---------------- leveling ---------------- *)

let test_leveling_empty () =
  Alcotest.(check bool) "trivial" true (Leveling.is_trivial Leveling.empty);
  Alcotest.(check (list ivl)) "default full" [ I.full ]
    (Leveling.iface_levels Leveling.empty "M" "ibw")

let test_leveling_with_iface () =
  let l = Leveling.with_iface Leveling.empty "M" "ibw" [ 90.; 100. ] in
  Alcotest.(check bool) "not trivial" false (Leveling.is_trivial l);
  Alcotest.(check (list ivl)) "three levels"
    [ I.make 0. 90.; I.make 90. 100.; I.make 100. Float.infinity ]
    (Leveling.iface_levels l "M" "ibw");
  Alcotest.(check (list ivl)) "other iface unleveled" [ I.full ]
    (Leveling.iface_levels l "T" "ibw")

let test_leveling_replace () =
  let l = Leveling.with_iface Leveling.empty "M" "ibw" [ 90. ] in
  let l = Leveling.with_iface l "M" "ibw" [ 50. ] in
  Alcotest.(check (list ivl)) "replaced"
    [ I.make 0. 50.; I.make 50. Float.infinity ]
    (Leveling.iface_levels l "M" "ibw")

let test_leveling_invalid_cuts () =
  Alcotest.check_raises "descending"
    (Invalid_argument "Interval.of_cutpoints: not strictly increasing")
    (fun () -> ignore (Leveling.with_iface Leveling.empty "M" "ibw" [ 5.; 3. ]))

let test_leveling_link () =
  let l = Leveling.with_link Leveling.empty "lbw" [ 31.; 62. ] in
  Alcotest.(check int) "three levels" 3
    (List.length (Leveling.link_levels l "lbw"));
  Alcotest.(check (list ivl)) "node untouched" [ I.full ]
    (Leveling.node_levels l "cpu")

let test_propagation_media () =
  (* Scenario C cutpoints on M propagate proportionally to T, I, Z. *)
  let app = Media.app ~server:0 ~client:1 () in
  let l =
    Leveling.propagate app
      (Leveling.with_iface Leveling.empty "M" "ibw" [ 90.; 100. ])
  in
  let cuts iface =
    List.find_map
      (fun (i, p, cuts) -> if i = iface && p = "ibw" then Some cuts else None)
      (Leveling.iface_cutpoints l)
  in
  Alcotest.(check (option (list (float 1e-9)))) "T = 0.7 M"
    (Some [ 63.; 70. ]) (cuts "T");
  Alcotest.(check (option (list (float 1e-9)))) "I = 0.3 M"
    (Some [ 27.; 30. ]) (cuts "I");
  Alcotest.(check (option (list (float 1e-9)))) "Z = T/2"
    (Some [ 31.5; 35. ]) (cuts "Z");
  Alcotest.(check (option (list (float 1e-9)))) "M unchanged"
    (Some [ 90.; 100. ]) (cuts "M")

let test_propagation_fixpoint_stable () =
  (* Propagating twice changes nothing. *)
  let app = Media.app ~server:0 ~client:1 () in
  let once =
    Leveling.propagate app
      (Leveling.with_iface Leveling.empty "M" "ibw" [ 30.; 70.; 90.; 100. ])
  in
  let twice = Leveling.propagate app once in
  Alcotest.(check int) "same cutpoint table"
    (List.length (Leveling.iface_cutpoints once))
    (List.length (Leveling.iface_cutpoints twice))

let test_propagation_empty_seed () =
  let app = Media.app ~server:0 ~client:1 () in
  let l = Leveling.propagate app Leveling.empty in
  Alcotest.(check bool) "nothing to propagate" true (Leveling.is_trivial l)

let test_tag_analysis_media () =
  let app = Media.app ~server:0 ~client:1 () in
  let tags = Leveling.analyze_tags app in
  (* Z never appears in conditions, so the analysis tags it degradable.
     T and I are tied by the Merger ratio equality, and M is demanded
     (>= 90) by the client: the conservative analysis must not call any
     of them degradable. *)
  let tag_of iface =
    List.find_map
      (fun (i, _, t) -> if i = iface then Some t else None)
      tags
  in
  Alcotest.(check bool) "Z degradable" true (tag_of "Z" = Some Model.Degradable);
  Alcotest.(check bool) "T blocked by ratio" true (tag_of "T" <> Some Model.Degradable);
  Alcotest.(check bool) "M not auto-degradable" true (tag_of "M" <> Some Model.Degradable)

(* ---------------- validate ---------------- *)

let tiny_topo () = G.line_kinds [ T.Wan ]

let test_validate_clean () =
  let app = Media.app ~server:0 ~client:1 () in
  Alcotest.(check int) "no diagnostics" 0
    (List.length (Validate.check_diagnostics (tiny_topo ()) app))

let test_validate_unknown_interface () =
  let app = Media.app ~server:0 ~client:1 () in
  let bad =
    { app with
      Model.components =
        Model.component ~requires:[ "Nope" ] "Bad" :: app.Model.components }
  in
  let diags = Validate.check_diagnostics (tiny_topo ()) bad in
  Alcotest.(check bool) "caught" true
    (List.exists
       (fun (d : D.t) -> Sekitei_spec.Str_split.split_once d.D.message "Nope" <> None)
       diags)

let test_validate_unknown_variable () =
  let app = Media.app ~server:0 ~client:1 () in
  let bad =
    { app with
      Model.components =
        Model.component ~requires:[ "M" ]
          ~conditions:[ E.parse_cond "Q.ibw >= 1" ]
          "Bad"
        :: app.Model.components }
  in
  Alcotest.(check bool) "caught" true
    (Validate.check_diagnostics (tiny_topo ()) bad <> [])

let test_validate_unknown_node_resource () =
  let app = Media.app ~server:0 ~client:1 () in
  let bad =
    { app with
      Model.components =
        Model.component ~requires:[ "M" ]
          ~consumes:[ ("gpu", E.parse "M.ibw") ]
          "Bad"
        :: app.Model.components }
  in
  Alcotest.(check bool) "caught" true
    (Validate.check_diagnostics (tiny_topo ()) bad <> [])

let test_validate_nonmonotone_effect () =
  let app = Media.app ~server:0 ~client:1 () in
  let bad =
    { app with
      Model.components =
        Model.component ~requires:[ "T" ] ~provides:[ "Z" ]
          ~effects:[ ("Z", "ibw", E.parse "T.ibw * T.ibw") ]
          "Quadratic"
        :: app.Model.components }
  in
  let diags = Validate.check_diagnostics (tiny_topo ()) bad in
  Alcotest.(check bool) "monotonicity flagged" true
    (List.exists
       (fun (d : D.t) ->
         Sekitei_spec.Str_split.split_once d.D.message "monotone" <> None)
       diags)

let test_validate_unset_provide () =
  let app = Media.app ~server:0 ~client:1 () in
  let bad =
    { app with
      Model.components =
        Model.component ~requires:[ "T" ] ~provides:[ "Z" ] "Forgetful"
        :: app.Model.components }
  in
  let diags = Validate.check_diagnostics (tiny_topo ()) bad in
  Alcotest.(check bool) "unset provide flagged" true
    (List.exists
       (fun (d : D.t) ->
         Sekitei_spec.Str_split.split_once d.D.message "never sets" <> None)
       diags)

let test_validate_goal_errors () =
  let app = Media.app ~server:0 ~client:1 () in
  let bad = { app with Model.goals = [ Model.Placed ("Ghost", 0) ] } in
  Alcotest.(check bool) "unknown goal component" true
    (Validate.check_diagnostics (tiny_topo ()) bad <> []);
  let bad2 = { app with Model.goals = [ Model.Placed ("Client", 99) ] } in
  Alcotest.(check bool) "node out of range" true
    (Validate.check_diagnostics (tiny_topo ()) bad2 <> []);
  let bad3 = { app with Model.goals = [] } in
  Alcotest.(check bool) "no goals" true
    (Validate.check_diagnostics (tiny_topo ()) bad3 <> [])

let test_validate_duplicates () =
  let app = Media.app ~server:0 ~client:1 () in
  let dup = { app with Model.interfaces = app.Model.interfaces @ [ List.hd app.Model.interfaces ] } in
  Alcotest.(check bool) "duplicate interface flagged" true
    (Validate.check_diagnostics (tiny_topo ()) dup <> [])

let suite =
  [
    ("iface defaults", `Quick, test_iface_defaults);
    ("iface needs property", `Quick, test_iface_no_properties);
    ("component defaults", `Quick, test_component_defaults);
    ("lookups", `Quick, test_lookups);
    ("leveling empty", `Quick, test_leveling_empty);
    ("leveling with_iface", `Quick, test_leveling_with_iface);
    ("leveling replace", `Quick, test_leveling_replace);
    ("leveling invalid cuts", `Quick, test_leveling_invalid_cuts);
    ("leveling link", `Quick, test_leveling_link);
    ("propagation media", `Quick, test_propagation_media);
    ("propagation fixpoint", `Quick, test_propagation_fixpoint_stable);
    ("propagation empty seed", `Quick, test_propagation_empty_seed);
    ("tag analysis media", `Quick, test_tag_analysis_media);
    ("validate clean", `Quick, test_validate_clean);
    ("validate unknown interface", `Quick, test_validate_unknown_interface);
    ("validate unknown variable", `Quick, test_validate_unknown_variable);
    ("validate unknown node resource", `Quick, test_validate_unknown_node_resource);
    ("validate non-monotone effect", `Quick, test_validate_nonmonotone_effect);
    ("validate unset provide", `Quick, test_validate_unset_provide);
    ("validate goal errors", `Quick, test_validate_goal_errors);
    ("validate duplicates", `Quick, test_validate_duplicates);
  ]

(* Cross-cutting integration tests: scenario E end-to-end with link-level
   checks, DSL round-trips for domains with cross conditions and
   multi-property interfaces, CLI-facing spec files. *)

module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Compile = Sekitei_core.Compile
module Audit = Sekitei_core.Audit
module Media = Sekitei_domains.Media
module Webservice = Sekitei_domains.Webservice
module Gridflow = Sekitei_domains.Gridflow
module Dsl = Sekitei_spec.Dsl
module Model = Sekitei_spec.Model
module Scenarios = Sekitei_harness.Scenarios

let contains hay needle = Sekitei_spec.Str_split.split_once hay needle <> None

let test_audit_scenario_e () =
  (* The E plan carries checked link levels; the audit must still balance
     exactly (4 links x 65 on Small). *)
  let sc = Scenarios.small () in
  let leveling = Media.leveling Media.E sc.Scenarios.app in
  let pb = Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling in
  match (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling)).Planner.result with
  | Error r -> Alcotest.failf "no plan: %a" Planner.pp_failure r
  | Ok p -> (
      match Audit.of_plan pb p with
      | Error e -> Alcotest.failf "audit: %s" e
      | Ok a ->
          Alcotest.(check int) "four links" 4 (List.length a.Audit.links);
          List.iter
            (fun (r : Audit.link_row) ->
              Alcotest.(check (float 1e-6)) "65 each" 65. r.Audit.used)
            a.Audit.links)

let test_webservice_dsl_roundtrip () =
  (* Cross conditions (link.secure >= 1) survive printing and reparsing,
     and the reparsed spec plans identically. *)
  let secure = [ 1; 0; 1 ] in
  let topo = Webservice.topology ~secure in
  let app = Webservice.app ~backend:0 ~consumer:3 () in
  let leveling = Webservice.leveling app in
  let text = Dsl.print_document ~topo app leveling in
  Alcotest.(check bool) "cross condition printed" true
    (contains text "condition link.secure >= 1");
  let doc = Dsl.parse_document text in
  let topo2 = Option.get doc.Dsl.topo in
  match
    ( (Planner.plan (Planner.request topo app ~leveling)).Planner.result,
      (Planner.plan (Planner.request topo2 doc.Dsl.app ~leveling:doc.Dsl.leveling)).Planner.result )
  with
  | Ok p1, Ok p2 ->
      Alcotest.(check int) "same length" (Plan.length p1) (Plan.length p2);
      Alcotest.(check (float 1e-9)) "same bound" p1.Plan.cost_lb p2.Plan.cost_lb
  | _ -> Alcotest.fail "round-trip changed plannability"

let test_gridflow_dsl_roundtrip () =
  (* Multi-property interfaces (ibw + lat) round-trip, including latency
     cross transforms and non-zero property defaults. *)
  let topo = Gridflow.topology ~link_lats:[ 5.; 5. ] ~bws:[ 150.; 150. ] in
  let app = Gridflow.app ~storage:0 ~consumer:2 () in
  let leveling = Gridflow.leveling app in
  let text = Dsl.print_document ~topo app leveling in
  Alcotest.(check bool) "latency transform printed" true
    (contains text "cross lat := lat + link.lat");
  let doc = Dsl.parse_document text in
  let topo2 = Option.get doc.Dsl.topo in
  Alcotest.(check (float 0.)) "link lat preserved" 5.
    (Sekitei_network.Topology.link_resource topo2 0 "lat");
  match (Planner.plan (Planner.request topo2 doc.Dsl.app ~leveling:doc.Dsl.leveling)).Planner.result with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "reparsed gridflow: %a" Planner.pp_failure r

let test_spec_file_on_disk () =
  (* The shipped example spec parses, validates and plans. *)
  let path = "../examples/specs/video.spec" in
  let path =
    if Sys.file_exists path then path else "examples/specs/video.spec"
  in
  if Sys.file_exists path then begin
    let doc =
      Dsl.parse_document (In_channel.with_open_text path In_channel.input_all)
    in
    let topo = Option.get doc.Dsl.topo in
    Alcotest.(check int) "diagnostics" 0
      (List.length (Sekitei_spec.Validate.check_diagnostics topo doc.Dsl.app));
    match (Planner.plan (Planner.request topo doc.Dsl.app ~leveling:doc.Dsl.leveling)).Planner.result with
    | Ok p -> Alcotest.(check int) "4 actions" 4 (Plan.length p)
    | Error r -> Alcotest.failf "no plan: %a" Planner.pp_failure r
  end

let test_goal_and_available_mix () =
  (* A Placed goal and an Available goal in the same problem. *)
  let sc = Scenarios.tiny () in
  let app =
    {
      sc.Scenarios.app with
      Model.goals =
        [ Model.Placed ("Client", 1); Model.Available ("M", "ibw", 1, 95.) ];
    }
  in
  let leveling = Media.leveling Media.C app in
  match (Planner.plan (Planner.request sc.Scenarios.topo app ~leveling)).Planner.result with
  | Ok p ->
      (* the sink adds one zero-cost placement *)
      Alcotest.(check int) "8 actions" 8 (Plan.length p)
  | Error r -> Alcotest.failf "no plan: %a" Planner.pp_failure r

let test_available_goal_too_high () =
  let sc = Scenarios.tiny () in
  let app =
    { sc.Scenarios.app with Model.goals = [ Model.Available ("M", "ibw", 1, 150.) ] }
  in
  let leveling = Media.leveling Media.C app in
  match (Planner.plan (Planner.request sc.Scenarios.topo app ~leveling)).Planner.result with
  | Ok _ -> Alcotest.fail "cannot deliver 150 over a 70-unit link"
  | Error _ -> ()

let suite =
  [
    ("audit scenario E", `Quick, test_audit_scenario_e);
    ("webservice DSL round-trip", `Quick, test_webservice_dsl_roundtrip);
    ("gridflow DSL round-trip", `Quick, test_gridflow_dsl_roundtrip);
    ("spec file on disk", `Quick, test_spec_file_on_disk);
    ("mixed goal kinds", `Quick, test_goal_and_available_mix);
    ("available goal too high", `Quick, test_available_goal_too_high);
  ]

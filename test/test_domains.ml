(* Integration tests for the chain (Figure 5) and gridflow domains, and
   the media domain's level-scenario builders. *)

module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Compile = Sekitei_core.Compile
module Chain = Sekitei_domains.Chain
module Gridflow = Sekitei_domains.Gridflow
module Media = Sekitei_domains.Media
module Leveling = Sekitei_spec.Leveling
module Validate = Sekitei_spec.Validate
module I = Sekitei_util.Interval
module T = Sekitei_network.Topology
module G = Sekitei_network.Generators

(* ---------------- media ---------------- *)

let test_media_scenarios_table1 () =
  let app = Media.app ~server:0 ~client:1 () in
  let levels sc = Leveling.iface_levels (Media.leveling sc app) "M" "ibw" in
  Alcotest.(check int) "A: one level" 1 (List.length (levels Media.A));
  Alcotest.(check int) "B: two levels" 2 (List.length (levels Media.B));
  Alcotest.(check int) "C: three levels" 3 (List.length (levels Media.C));
  Alcotest.(check int) "D: five levels" 5 (List.length (levels Media.D));
  Alcotest.(check int) "E: five levels" 5 (List.length (levels Media.E));
  Alcotest.(check int) "E: link leveled" 3
    (List.length (Leveling.link_levels (Media.leveling Media.E app) "lbw"));
  Alcotest.(check int) "D: link unleveled" 1
    (List.length (Leveling.link_levels (Media.leveling Media.D app) "lbw"))

let test_media_validates_everywhere () =
  List.iter
    (fun (sc : Sekitei_harness.Scenarios.t) ->
      Alcotest.(check int)
        (sc.Sekitei_harness.Scenarios.name ^ " valid")
        0
        (List.length
           (Validate.check_diagnostics sc.Sekitei_harness.Scenarios.topo
              sc.Sekitei_harness.Scenarios.app)))
    [ Sekitei_harness.Scenarios.tiny (); Sekitei_harness.Scenarios.small () ]

let test_media_custom_supply_demand () =
  (* With 100 supply and 60 demand over a 70-link, the direct plan works. *)
  let topo = G.line_kinds [ T.Wan ] in
  let app = Media.app ~supply:100. ~demand:60. ~server:0 ~client:1 () in
  let leveling =
    Leveling.propagate app (Leveling.with_iface Leveling.empty "M" "ibw" [ 60.; 70. ])
  in
  match (Planner.plan (Planner.request topo app ~leveling)).Planner.result with
  | Ok p -> Alcotest.(check int) "direct" 2 (Plan.length p)
  | Error r -> Alcotest.failf "no plan: %a" Planner.pp_failure r

(* ---------------- chain (Figure 5) ---------------- *)

let chain_uses_zip alpha =
  let topo = Chain.topology () in
  let app = Chain.app ~cross_weight:alpha () in
  let leveling = Chain.leveling app in
  let pb = Compile.compile topo app leveling in
  match (Planner.plan (Planner.request topo app ~leveling)).Planner.result with
  | Ok p ->
      Some
        (List.exists (fun (n, _) -> String.equal n "Zip") (Plan.placements pb p))
  | Error _ -> None

let test_chain_cheap_links_direct () =
  Alcotest.(check (option bool)) "direct at alpha=0.5" (Some false)
    (chain_uses_zip 0.5)

let test_chain_dear_links_compress () =
  Alcotest.(check (option bool)) "zip at alpha=2" (Some true) (chain_uses_zip 2.)

let test_chain_crossover_monotone () =
  (* Once compression wins it keeps winning as links get dearer. *)
  let flips =
    List.map chain_uses_zip [ 0.25; 0.5; 1.0; 1.5; 2.0; 4.0 ]
    |> List.map Option.get
  in
  let rec monotone = function
    | true :: false :: _ -> false
    | _ :: rest -> monotone rest
    | [] -> true
  in
  Alcotest.(check bool) "single crossover" true (monotone flips);
  Alcotest.(check bool) "actually flips" true
    (List.exists Fun.id flips && List.exists not flips)

let test_chain_valid_spec () =
  Alcotest.(check int) "valid" 0
    (List.length (Validate.check_diagnostics (Chain.topology ()) (Chain.app ())))

(* ---------------- gridflow ---------------- *)

let gridflow_solve ?deadline () =
  let topo =
    Gridflow.topology ~link_lats:[ 5.; 5.; 5. ] ~bws:[ 150.; 30.; 150. ]
  in
  let app = Gridflow.app ?deadline ~storage:0 ~consumer:3 () in
  let leveling = Gridflow.leveling app in
  ((Planner.plan (Planner.request topo app ~leveling)).Planner.result, Compile.compile topo app leveling)

let test_gridflow_plans () =
  match gridflow_solve () with
  | Ok p, pb ->
      (* Analyze must run at the storage side of the narrow link: the raw
         120-unit F cannot cross the 30-unit middle link. *)
      let placements = Plan.placements pb p in
      Alcotest.(check bool) "analyze on storage side" true
        (match List.assoc_opt "Analyze" placements with
        | Some n -> n <= 1
        | None -> false)
  | Error r, _ -> Alcotest.failf "no plan: %a" Planner.pp_failure r

let test_gridflow_deadline_prunes () =
  (* Total latency is 15 (links) + 5 (analyze) = 20. *)
  (match gridflow_solve ~deadline:20. () with
  | Ok _, _ -> ()
  | Error r, _ -> Alcotest.failf "20 should work: %a" Planner.pp_failure r);
  match gridflow_solve ~deadline:19. () with
  | Ok _, _ -> Alcotest.fail "19 must be infeasible"
  | Error _, _ -> ()

let test_gridflow_latency_metric () =
  match gridflow_solve () with
  | Ok p, _pb ->
      Alcotest.(check bool) "cost positive" true (p.Plan.cost_lb > 0.)
  | Error r, _ -> Alcotest.failf "no plan: %a" Planner.pp_failure r

let test_gridflow_valid_spec () =
  let topo = Gridflow.topology ~link_lats:[ 1. ] ~bws:[ 100. ] in
  Alcotest.(check int) "valid" 0
    (List.length (Validate.check_diagnostics topo (Gridflow.app ~storage:0 ~consumer:1 ())))

let test_gridflow_narrow_everywhere () =
  (* All links 15 units: R needs at least 20 at the consumer, but any
     crossing caps it at 15; the instance is infeasible and must be
     reported as such, not crash. *)
  let topo = Gridflow.topology ~link_lats:[ 1.; 1. ] ~bws:[ 15.; 15. ] in
  let app = Gridflow.app ~storage:0 ~consumer:2 () in
  let leveling = Gridflow.leveling app in
  match (Planner.plan (Planner.request topo app ~leveling)).Planner.result with
  | Ok _ -> Alcotest.fail "cannot deliver 20 units of R through 15-unit links"
  | Error _ -> ()

let suite =
  [
    ("media scenario levels (Table 1)", `Quick, test_media_scenarios_table1);
    ("media validates", `Quick, test_media_validates_everywhere);
    ("media custom supply/demand", `Quick, test_media_custom_supply_demand);
    ("chain: cheap links go direct", `Quick, test_chain_cheap_links_direct);
    ("chain: dear links compress", `Quick, test_chain_dear_links_compress);
    ("chain: single crossover", `Quick, test_chain_crossover_monotone);
    ("chain: valid spec", `Quick, test_chain_valid_spec);
    ("gridflow: plans", `Quick, test_gridflow_plans);
    ("gridflow: deadline prunes", `Quick, test_gridflow_deadline_prunes);
    ("gridflow: metrics", `Quick, test_gridflow_latency_metric);
    ("gridflow: valid spec", `Quick, test_gridflow_valid_spec);
    ("gridflow: infeasible narrow", `Quick, test_gridflow_narrow_everywhere);
  ]

(* Tests for the extensions beyond the paper's core: redeployment
   (section 6 future work), the web-service security domain, deployment
   DOT rendering, and the cost-adjustment hook. *)

module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Compile = Sekitei_core.Compile
module Redeploy = Sekitei_core.Redeploy
module Deployment_dot = Sekitei_core.Deployment_dot
module Media = Sekitei_domains.Media
module Webservice = Sekitei_domains.Webservice
module Scenarios = Sekitei_harness.Scenarios
module Topology = Sekitei_network.Topology
module G = Sekitei_network.Generators

let contains hay needle = Sekitei_spec.Str_split.split_once hay needle <> None

(* ---------------- cost adjustment hook ---------------- *)

let test_adjust_changes_bound () =
  let sc = Scenarios.tiny () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  let base = Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling) in
  let adjusted =
    Planner.plan
      ~adjust:(fun ~comp ~node:_ -> if comp = "Zip" then 10. else 0.)
      (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling)
  in
  match (base.Planner.result, adjusted.Planner.result) with
  | Ok b, Ok a ->
      Alcotest.(check (float 1e-9)) "surcharge shows in bound"
        (b.Plan.cost_lb +. 10.) a.Plan.cost_lb
  | _ -> Alcotest.fail "both must plan"

let test_adjust_never_negative () =
  (* A massive discount cannot push any action cost below zero, so the
     bound stays non-negative and A* stays admissible. *)
  let sc = Scenarios.tiny () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  let o =
    Planner.plan
      ~adjust:(fun ~comp:_ ~node:_ -> -1e9)
      (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling)
  in
  match o.Planner.result with
  | Ok p -> Alcotest.(check bool) "bound >= 0" true (p.Plan.cost_lb >= 0.)
  | Error r -> Alcotest.failf "no plan: %a" Planner.pp_failure r

(* ---------------- redeploy ---------------- *)

let small_deployment () =
  let sc = Scenarios.small () in
  let leveling = Media.leveling Media.D sc.Scenarios.app in
  let pb = Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling in
  match (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling)).Planner.result with
  | Ok p -> (sc, leveling, pb, p)
  | Error r -> Alcotest.failf "initial plan failed: %a" Planner.pp_failure r

let test_redeploy_keeps_when_unchanged () =
  let sc, leveling, pb, p = small_deployment () in
  let previous = Plan.placements pb p in
  let o = Redeploy.replan ~previous sc.Scenarios.topo sc.Scenarios.app leveling in
  match o.Planner.result with
  | Ok p' ->
      let d = Redeploy.diff ~previous pb p' in
      Alcotest.(check int) "all kept" (List.length previous) (List.length d.Redeploy.kept);
      Alcotest.(check int) "none moved" 0 (List.length d.Redeploy.moved);
      Alcotest.(check int) "none added" 0 (List.length d.Redeploy.added)
  | Error r -> Alcotest.failf "replan failed: %a" Planner.pp_failure r

let test_redeploy_discount_lowers_bound () =
  let sc, leveling, pb, p = small_deployment () in
  let previous = Plan.placements pb p in
  let o = Redeploy.replan ~previous sc.Scenarios.topo sc.Scenarios.app leveling in
  match o.Planner.result with
  | Ok p' ->
      Alcotest.(check bool) "discounted bound" true (p'.Plan.cost_lb < p.Plan.cost_lb)
  | Error r -> Alcotest.failf "replan failed: %a" Planner.pp_failure r

let test_redeploy_migrates_on_cpu_loss () =
  let sc, leveling, pb, p = small_deployment () in
  let previous = Plan.placements pb p in
  (* Kill CPU on the server node: Splitter and Zip must move. *)
  let crippled =
    Topology.make
      ~nodes:
        (Array.to_list (Topology.nodes sc.Scenarios.topo)
        |> List.map (fun (n : Topology.node) ->
               if n.Topology.node_id = 4 then
                 { n with Topology.node_resources = [ ("cpu", 5.) ] }
               else n))
      ~links:(Array.to_list (Topology.links sc.Scenarios.topo))
  in
  let o = Redeploy.replan ~previous crippled sc.Scenarios.app leveling in
  match o.Planner.result with
  | Ok p' ->
      let pb' = Compile.compile crippled sc.Scenarios.app leveling in
      let d = Redeploy.diff ~previous pb' p' in
      Alcotest.(check bool) "splitter moved" true
        (List.exists (fun (c, _, _) -> c = "Splitter") d.Redeploy.moved);
      Alcotest.(check bool) "client kept" true
        (List.mem ("Client", 0) d.Redeploy.kept)
  | Error r -> Alcotest.failf "adaptation failed: %a" Planner.pp_failure r

let test_redeploy_diff_shapes () =
  let _, _, pb, p = small_deployment () in
  let placements = Plan.placements pb p in
  (* Pretend the previous deployment had the Client elsewhere and an extra
     component that disappears. *)
  let previous = ("Client", 3) :: ("Ghost", 2)
                 :: List.remove_assoc "Client" placements in
  let d = Redeploy.diff ~previous pb p in
  Alcotest.(check bool) "client moved" true
    (List.exists (fun (c, a, b) -> c = "Client" && a = 3 && b = 0) d.Redeploy.moved);
  Alcotest.(check (list (pair string int))) "ghost removed" [ ("Ghost", 2) ]
    d.Redeploy.removed

let test_policy_extremes () =
  (* With a prohibitive migration surcharge and no discount, replanning
     after a CPU loss still succeeds (fresh placement is cheaper than
     migration but both remain possible). *)
  let sc, leveling, _, p = small_deployment () in
  let pb = Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling in
  let previous = Plan.placements pb p in
  let policy = { Redeploy.keep_discount = 0.; migrate_surcharge = 1000. } in
  let o = Redeploy.replan ~policy ~previous sc.Scenarios.topo sc.Scenarios.app leveling in
  match o.Planner.result with
  | Ok p' ->
      let d = Redeploy.diff ~previous pb p' in
      Alcotest.(check int) "nobody migrates" 0 (List.length d.Redeploy.moved)
  | Error r -> Alcotest.failf "replan failed: %a" Planner.pp_failure r

(* ---------------- webservice domain ---------------- *)

let ws_solve secure =
  let topo = Webservice.topology ~secure in
  let app = Webservice.app ~backend:0 ~consumer:(List.length secure) () in
  let leveling = Webservice.leveling app in
  let pb = Compile.compile topo app leveling in
  ((Planner.plan (Planner.request topo app ~leveling)).Planner.result, pb)

let test_ws_secure_path_direct () =
  match ws_solve [ 1; 1; 1 ] with
  | Ok p, pb ->
      Alcotest.(check int) "direct" 4 (Plan.length p);
      Alcotest.(check bool) "no crypto" true
        (not (List.mem_assoc "Encryptor" (Plan.placements pb p)))
  | Error r, _ -> Alcotest.failf "no plan: %a" Planner.pp_failure r

let test_ws_insecure_middle_bracketed () =
  match ws_solve [ 1; 0; 1 ] with
  | Ok p, pb ->
      let placements = Plan.placements pb p in
      Alcotest.(check (option int)) "encrypt before the hole" (Some 1)
        (List.assoc_opt "Encryptor" placements);
      Alcotest.(check (option int)) "decrypt after the hole" (Some 2)
        (List.assoc_opt "Decryptor" placements);
      (* plaintext only on secure links *)
      List.iter
        (fun (iface, src, dst) ->
          if iface = "P" then
            Alcotest.(check bool) "P on secure hops only" true
              ((src, dst) = (0, 1) || (src, dst) = (2, 3)))
        (Plan.crossings pb p)
  | Error r, _ -> Alcotest.failf "no plan: %a" Planner.pp_failure r

let test_ws_fully_insecure_end_to_end () =
  match ws_solve [ 0; 0; 0 ] with
  | Ok p, pb ->
      let placements = Plan.placements pb p in
      Alcotest.(check (option int)) "encrypt at source" (Some 0)
        (List.assoc_opt "Encryptor" placements);
      Alcotest.(check (option int)) "decrypt at sink" (Some 3)
        (List.assoc_opt "Decryptor" placements)
  | Error r, _ -> Alcotest.failf "no plan: %a" Planner.pp_failure r

let test_ws_valid_spec () =
  let topo = Webservice.topology ~secure:[ 1; 0 ] in
  Alcotest.(check int) "valid" 0
    (List.length
       (Sekitei_spec.Validate.check_diagnostics topo (Webservice.app ~backend:0 ~consumer:2 ())))

(* ---------------- deployment DOT ---------------- *)

let test_deployment_dot () =
  let sc = Scenarios.tiny () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  let pb = Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling in
  match (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling)).Planner.result with
  | Ok p ->
      let dot = Deployment_dot.render pb p in
      List.iter
        (fun needle -> Alcotest.(check bool) needle true (contains dot needle))
        [ "digraph deployment"; "Splitter"; "Server"; "n0 -> n1"; "label=\"Z\"" ]
  | Error r -> Alcotest.failf "no plan: %a" Planner.pp_failure r

let suite =
  [
    ("adjust changes bound", `Quick, test_adjust_changes_bound);
    ("adjust never negative", `Quick, test_adjust_never_negative);
    ("redeploy keeps when unchanged", `Quick, test_redeploy_keeps_when_unchanged);
    ("redeploy discount lowers bound", `Quick, test_redeploy_discount_lowers_bound);
    ("redeploy migrates on cpu loss", `Quick, test_redeploy_migrates_on_cpu_loss);
    ("redeploy diff shapes", `Quick, test_redeploy_diff_shapes);
    ("policy extremes", `Quick, test_policy_extremes);
    ("webservice: secure path direct", `Quick, test_ws_secure_path_direct);
    ("webservice: insecure middle bracketed", `Quick, test_ws_insecure_middle_bracketed);
    ("webservice: fully insecure", `Quick, test_ws_fully_insecure_end_to_end);
    ("webservice: valid spec", `Quick, test_ws_valid_spec);
    ("deployment dot", `Quick, test_deployment_dot);
  ]

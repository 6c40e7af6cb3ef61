(* Tests for the operator tooling: topology mutation, deployment audit,
   automatic level suggestion, node-resource leveling. *)

module T = Sekitei_network.Topology
module Mutate = Sekitei_network.Mutate
module G = Sekitei_network.Generators
module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Compile = Sekitei_core.Compile
module Audit = Sekitei_core.Audit
module Media = Sekitei_domains.Media
module Leveling = Sekitei_spec.Leveling
module Scenarios = Sekitei_harness.Scenarios

let contains hay needle = Sekitei_spec.Str_split.split_once hay needle <> None

(* ---------------- mutate ---------------- *)

let test_set_link_resource () =
  let t = G.line 3 in
  let t' = Mutate.set_link_resource t 1 "lbw" 42. in
  Alcotest.(check (float 0.)) "changed" 42. (T.link_resource t' 1 "lbw");
  Alcotest.(check (float 0.)) "others untouched" 150. (T.link_resource t' 0 "lbw");
  Alcotest.(check (float 0.)) "original untouched" 150. (T.link_resource t 1 "lbw")

let test_set_node_resource () =
  let t = G.line 3 in
  let t' = Mutate.set_node_resource t 2 "cpu" 5. in
  Alcotest.(check (float 0.)) "changed" 5. (T.node_resource t' 2 "cpu");
  Alcotest.(check (float 0.)) "others untouched" 30. (T.node_resource t' 0 "cpu")

let test_remove_link () =
  let t = G.line 4 in
  let t' = Mutate.remove_link t 1 in
  Alcotest.(check int) "one fewer" 2 (T.link_count t');
  Alcotest.(check bool) "now disconnected" false (T.is_connected t');
  (* survivors keep their original (stable) ids *)
  Alcotest.(check (list int)) "stable ids" [ 0; 2 ]
    (Array.to_list (Array.map (fun l -> l.T.link_id) (T.links t')));
  Alcotest.(check int) "id space unchanged" 3 (T.link_id_bound t');
  Alcotest.(check (list int)) "tombstone recorded" [ 1 ] (T.dead_links t');
  Alcotest.(check bool) "liveness bit" false (T.link_is_live t' 1);
  Alcotest.check_raises "get_link on dead id" (T.Stale_link 1) (fun () ->
      ignore (T.get_link t' 1));
  (* survivor 2 still denotes the same physical link n2-n3 *)
  let l2 = T.get_link t' 2 in
  Alcotest.(check (pair int int)) "same endpoints" (2, 3) l2.T.ends

let test_fail_node () =
  let t = G.star 3 in
  let t' = Mutate.fail_node t 0 in
  Alcotest.(check (float 0.)) "cpu zeroed" 0. (T.node_resource t' 0 "cpu");
  Alcotest.(check int) "links gone" 0 (T.link_count t');
  Alcotest.(check int) "nodes stay" 4 (T.node_count t');
  Alcotest.(check bool) "hub marked dead" false (T.node_alive t' 0);
  Alcotest.(check bool) "spokes alive" true (T.node_alive t' 1);
  Alcotest.(check (list int)) "failure recorded" [ 0 ] (T.failed_nodes t');
  (* incident links are tombstoned, not renumbered away *)
  Alcotest.(check int) "id space unchanged" 3 (T.link_id_bound t');
  Alcotest.check_raises "incident link stale" (T.Stale_link 0) (fun () ->
      ignore (T.get_link t' 0))

let test_mutate_rejects_bad_ids () =
  let t = G.line 3 in
  Alcotest.check_raises "set_link_resource unknown id"
    (Invalid_argument "Mutate.set_link_resource: unknown link 9") (fun () ->
      ignore (Mutate.set_link_resource t 9 "lbw" 1.));
  Alcotest.check_raises "set_node_resource unknown id"
    (Invalid_argument "Mutate.set_node_resource: unknown node 7") (fun () ->
      ignore (Mutate.set_node_resource t 7 "cpu" 1.));
  Alcotest.check_raises "remove_link unknown id"
    (Invalid_argument "Topology.get_link") (fun () ->
      ignore (Mutate.remove_link t 9));
  Alcotest.check_raises "fail_node unknown id"
    (Invalid_argument "Mutate.fail_node: unknown node 7") (fun () ->
      ignore (Mutate.fail_node t 7));
  (* non-finite values are rejected like bad ids *)
  Alcotest.check_raises "set_link_resource inf"
    (Invalid_argument "Mutate.set_link_resource: lbw must be finite, got inf")
    (fun () -> ignore (Mutate.set_link_resource t 0 "lbw" Float.infinity));
  Alcotest.check_raises "set_link_resource 1e400"
    (Invalid_argument "Mutate.set_link_resource: lbw must be finite, got inf")
    (fun () ->
      ignore (Mutate.set_link_resource t 0 "lbw" (float_of_string "1e400")));
  Alcotest.check_raises "set_node_resource nan"
    (Invalid_argument "Mutate.set_node_resource: cpu must be finite, got nan")
    (fun () -> ignore (Mutate.set_node_resource t 0 "cpu" Float.nan));
  Alcotest.check_raises "set_node_resource -inf"
    (Invalid_argument "Mutate.set_node_resource: cpu must be finite, got -inf")
    (fun () -> ignore (Mutate.set_node_resource t 0 "cpu" Float.neg_infinity));
  (* so are negative ones; zero stays valid (fail_node zeroes) *)
  Alcotest.check_raises "set_node_resource -5"
    (Invalid_argument "Mutate.set_node_resource: cpu must be non-negative, got -5")
    (fun () -> ignore (Mutate.set_node_resource t 0 "cpu" (-5.)));
  Alcotest.check_raises "set_link_resource -5"
    (Invalid_argument "Mutate.set_link_resource: lbw must be non-negative, got -5")
    (fun () -> ignore (Mutate.set_link_resource t 0 "lbw" (-5.)));
  ignore (Mutate.set_node_resource t 0 "cpu" 0.);
  (* a tombstoned link is Stale, not unknown *)
  let t' = Mutate.remove_link t 0 in
  Alcotest.check_raises "set on removed link" (T.Stale_link 0) (fun () ->
      ignore (Mutate.set_link_resource t' 0 "lbw" 1.));
  Alcotest.check_raises "double removal" (T.Stale_link 0) (fun () ->
      ignore (Mutate.remove_link t' 0))

let test_mutation_replans () =
  (* End to end: degrade the tiny WAN link below the split streams' need
     and the planner reports infeasibility. *)
  let sc = Scenarios.tiny () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  let degraded = Mutate.set_link_resource sc.Scenarios.topo 0 "lbw" 50. in
  match (Planner.plan (Planner.request degraded sc.Scenarios.app ~leveling)).Planner.result with
  | Ok _ -> Alcotest.fail "Z+I = 65 cannot fit 50"
  | Error _ -> ()

(* ---------------- audit ---------------- *)

let audit_small () =
  let sc = Scenarios.small () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  let pb = Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling in
  match (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling)).Planner.result with
  | Ok p -> (pb, p)
  | Error r -> Alcotest.failf "no plan: %a" Planner.pp_failure r

let test_audit_tables () =
  let pb, p = audit_small () in
  match Audit.of_plan pb p with
  | Error e -> Alcotest.failf "audit failed: %s" e
  | Ok a ->
      Alcotest.(check int) "plan length" 13 a.Audit.plan_length;
      (* 4 links carry Z+I = 65 each *)
      Alcotest.(check int) "four links used" 4 (List.length a.Audit.links);
      List.iter
        (fun (r : Audit.link_row) ->
          Alcotest.(check (float 1e-6)) "Z+I per link" 65. r.Audit.used)
        a.Audit.links;
      (* CPU used on server and client nodes only *)
      Alcotest.(check int) "two nodes used" 2 (List.length a.Audit.nodes);
      let text = Audit.to_string pb a in
      List.iter
        (fun needle -> Alcotest.(check bool) needle true (contains text needle))
        [ "link utilization"; "node utilization"; "streams"; "WAN"; "93%" ]

let test_audit_rejects_invalid () =
  let pb, p = audit_small () in
  let broken = { p with Plan.steps = List.tl p.Plan.steps } in
  match Audit.of_plan pb broken with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject a non-replaying plan"

(* ---------------- level suggestion ---------------- *)

let test_suggest_media () =
  let app = Media.app ~server:0 ~client:1 () in
  let l = Leveling.suggest app in
  let m_cuts =
    List.find_map
      (fun (i, p, cuts) -> if i = "M" && p = "ibw" then Some cuts else None)
      (Leveling.iface_cutpoints l)
  in
  match m_cuts with
  | None -> Alcotest.fail "no cutpoints suggested for M"
  | Some cuts ->
      Alcotest.(check bool) "demand is a cutpoint" true (List.mem 90. cuts);
      Alcotest.(check bool) "band above demand" true (List.mem 99.00000000000001 cuts || List.mem 99. cuts);
      Alcotest.(check bool) "supply is a cutpoint" true (List.mem 200. cuts);
      (* derived interfaces got proportional cuts *)
      Alcotest.(check bool) "T derived" true
        (List.exists (fun (i, _, _) -> i = "T") (Leveling.iface_cutpoints l))

let test_suggest_plans_optimally () =
  (* Suggested levels must solve Tiny and reach the Small optimum's
     structure (13 actions, LAN peak < 70). *)
  List.iter
    (fun (sc : Scenarios.t) ->
      let l = Leveling.suggest sc.Scenarios.app in
      match (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling:l)).Planner.result with
      | Ok p ->
          if sc.Scenarios.name = "Small" then begin
            Alcotest.(check int) "13 actions" 13 (Plan.length p);
            Alcotest.(check bool) "LAN peak below raw stream" true
              (p.Plan.metrics.Sekitei_core.Replay.lan_peak < 70.)
          end
      | Error r ->
          Alcotest.failf "%s with suggested levels: %a" sc.Scenarios.name
            Planner.pp_failure r)
    [ Scenarios.tiny (); Scenarios.small () ]

let test_suggest_beats_fixed_band () =
  (* The suggested expansion band (90..99) wastes less LAN bandwidth than
     scenario C's 90..100. *)
  let sc = Scenarios.small () in
  let l = Leveling.suggest sc.Scenarios.app in
  let c = Media.leveling Media.C sc.Scenarios.app in
  match
    ( (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling:l)).Planner.result,
      (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling:c)).Planner.result )
  with
  | Ok ps, Ok pc ->
      Alcotest.(check bool) "tighter band, lower LAN use" true
        (ps.Plan.metrics.Sekitei_core.Replay.lan_peak
        <= pc.Plan.metrics.Sekitei_core.Replay.lan_peak +. 1e-9)
  | _ -> Alcotest.fail "both must plan"

(* ---------------- node-resource leveling ---------------- *)

let test_node_cpu_leveling () =
  (* The paper expects that "for some problems it might be beneficial to
     discretize such resources as node CPU": leveling CPU multiplies the
     action count and adds checked node levels, without changing the
     plan. *)
  let sc = Scenarios.tiny () in
  let base = Media.leveling Media.C sc.Scenarios.app in
  let leveled = Leveling.with_node base "cpu" [ 10.; 20. ] in
  let pb_base = Compile.compile sc.Scenarios.topo sc.Scenarios.app base in
  let pb_lvl = Compile.compile sc.Scenarios.topo sc.Scenarios.app leveled in
  Alcotest.(check bool) "more actions" true
    (Array.length pb_lvl.Sekitei_core.Problem.actions
    > Array.length pb_base.Sekitei_core.Problem.actions);
  Alcotest.(check bool) "checked node levels present" true
    (Array.exists
       (fun (a : Sekitei_core.Action.t) ->
         Array.length a.Sekitei_core.Action.checked_node > 0)
       pb_lvl.Sekitei_core.Problem.actions);
  match
    ( (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling:base)).Planner.result,
      (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling:leveled)).Planner.result )
  with
  | Ok p1, Ok p2 ->
      Alcotest.(check int) "same plan length" (Plan.length p1) (Plan.length p2)
  | _ -> Alcotest.fail "both must plan"

let suite =
  [
    ("mutate: set link resource", `Quick, test_set_link_resource);
    ("mutate: set node resource", `Quick, test_set_node_resource);
    ("mutate: remove link", `Quick, test_remove_link);
    ("mutate: fail node", `Quick, test_fail_node);
    ("mutate: rejects bad ids", `Quick, test_mutate_rejects_bad_ids);
    ("mutate: degraded network replans", `Quick, test_mutation_replans);
    ("audit: tables", `Quick, test_audit_tables);
    ("audit: rejects invalid", `Quick, test_audit_rejects_invalid);
    ("suggest: media cutpoints", `Quick, test_suggest_media);
    ("suggest: plans optimally", `Quick, test_suggest_plans_optimally);
    ("suggest: beats fixed band", `Quick, test_suggest_beats_fixed_band);
    ("node cpu leveling", `Quick, test_node_cpu_leveling);
  ]

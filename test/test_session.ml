(* Tests for long-lived planning sessions: warm re-plans, delta
   invalidation, incremental recompilation, and deadline tokens. *)

module Planner = Sekitei_core.Planner
module Session = Sekitei_core.Session
module Plan = Sekitei_core.Plan
module Compile = Sekitei_core.Compile
module Plrg = Sekitei_core.Plrg
module Slrg = Sekitei_core.Slrg
module Rg = Sekitei_core.Rg
module Problem = Sekitei_core.Problem
module Deadline = Sekitei_util.Deadline
module Telemetry = Sekitei_telemetry.Telemetry
module Registry = Sekitei_telemetry.Registry
module Scenarios = Sekitei_harness.Scenarios
module Media = Sekitei_domains.Media
module T = Sekitei_network.Topology
module Mutate = Sekitei_network.Mutate

let close = Alcotest.(check (float 1e-6))

let small_request () =
  let sc = Scenarios.small () in
  (sc, Planner.request sc.Scenarios.topo sc.Scenarios.app
         ~leveling:(Media.leveling Media.C sc.Scenarios.app))

let cost_of label (r : Planner.report) =
  match r.Planner.result with
  | Ok p -> p.Plan.cost_lb
  | Error reason ->
      Alcotest.failf "%s: expected a plan, got %a" label Planner.pp_failure
        reason

(* ---------------- warm re-plans ---------------- *)

let test_warm_skips_compile () =
  let _, req = small_request () in
  let session = Session.create req in
  Alcotest.(check bool) "cold before first plan" false (Session.is_warm session);
  let cold = Session.plan session in
  Alcotest.(check bool) "warm after first plan" true (Session.is_warm session);
  let warm = Session.plan session in
  (* The compile/plrg work belongs to the first report; the warm request
     reports zero phase time while keeping the item counts. *)
  Alcotest.(check bool) "cold run compiled" true
    (cold.Planner.phases.Planner.compile.Planner.minor_words > 0.);
  close "warm compile ms" 0. warm.Planner.phases.Planner.compile.Planner.ms;
  close "warm plrg ms" 0. warm.Planner.phases.Planner.plrg.Planner.ms;
  Alcotest.(check int) "warm keeps action count"
    cold.Planner.stats.Planner.total_actions
    warm.Planner.stats.Planner.total_actions;
  close "same cost" (cost_of "cold" cold) (cost_of "warm" warm);
  Alcotest.(check int) "no invalidation without updates" 0
    warm.Planner.stats.Planner.invalidated_actions;
  Alcotest.(check int) "no eviction without updates" 0
    warm.Planner.stats.Planner.evicted_entries

let test_one_shot_plan_is_cold_session () =
  let _, req = small_request () in
  let one_shot = Planner.plan req in
  let session = Session.create req in
  let cold = Session.plan session in
  close "same cost" (cost_of "one-shot" one_shot) (cost_of "session" cold);
  Alcotest.(check int) "same rg_created"
    one_shot.Planner.stats.Planner.rg_created
    cold.Planner.stats.Planner.rg_created;
  Alcotest.(check int) "same slrg_nodes"
    one_shot.Planner.stats.Planner.slrg_nodes
    cold.Planner.stats.Planner.slrg_nodes

(* After an update, the warm re-plan must agree with a cold plan of the
   session's current topology (same result constructor and cost bound —
   see the fp provisos in session.mli), and the invalidation counters
   must surface the incremental work. *)
let test_update_then_warm_equals_cold () =
  let sc, req = small_request () in
  let session = Session.create req in
  ignore (Session.plan session);
  ignore
    (Session.update session
       (Session.Set_link_resource { link = 2; resource = "lbw"; value = 66. }));
  let warm = Session.plan session in
  Alcotest.(check bool) "update invalidated actions" true
    (warm.Planner.stats.Planner.invalidated_actions > 0);
  Alcotest.(check bool) "update evicted oracle entries" true
    (warm.Planner.stats.Planner.evicted_entries > 0);
  let cold =
    Planner.plan
      (Planner.request (Session.topology session) sc.Scenarios.app
         ~leveling:req.Planner.leveling)
  in
  close "warm == cold cost" (cost_of "cold" cold) (cost_of "warm" warm);
  (* Counters are consumed by the report: a further re-plan with no new
     updates is clean again. *)
  let again = Session.plan session in
  Alcotest.(check int) "counters consumed" 0
    again.Planner.stats.Planner.invalidated_actions

let test_update_to_infeasible_and_back () =
  let sc, req = small_request () in
  let session = Session.create req in
  let cost0 = cost_of "initial" (Session.plan session) in
  (* Starve the WAN link below the smallest deliverable level... *)
  ignore
    (Session.update session
       (Session.Set_link_resource { link = 2; resource = "lbw"; value = 1. }));
  (match (Session.plan session).Planner.result with
  | Error (Planner.Unreachable_goal _ | Planner.Resource_exhausted) -> ()
  | Error reason ->
      Alcotest.failf "unexpected failure: %a" Planner.pp_failure reason
  | Ok _ -> Alcotest.fail "plan should be infeasible at 1 unit of WAN bw");
  (* ...then restore it: the session must recover the original plan. *)
  let original = T.link_resource sc.Scenarios.topo 2 "lbw" in
  ignore
    (Session.update session
       (Session.Set_link_resource
          { link = 2; resource = "lbw"; value = original }));
  close "recovered cost" cost0 (cost_of "recovered" (Session.plan session))

(* ---------------- remove-link identity stability ---------------- *)

(* A diamond: two equal-cost server->client routes.  Removing one leg
   tombstones it while the survivors keep their ids; the session must
   keep planning against the mutated topology exactly as a cold run does
   (the historical bug class: grounded Cross actions naming stale link
   ids after a dense renumbering — now impossible by construction). *)
let diamond () =
  let topo =
    T.make
      ~nodes:(List.init 4 (fun i -> T.node ~cpu:30. i (Printf.sprintf "n%d" i)))
      ~links:
        [
          T.link ~bw:150. T.Lan 0 0 1;
          T.link ~bw:150. T.Lan 1 1 3;
          T.link ~bw:150. T.Lan 2 0 2;
          T.link ~bw:150. T.Lan 3 2 3;
        ]
  in
  let app = Media.app ~server:0 ~client:3 () in
  (topo, app, Media.leveling Media.C app)

let test_remove_link_replan () =
  let topo, app, leveling = diamond () in
  let session = Session.create (Planner.request topo app ~leveling) in
  let cost0 = cost_of "diamond" (Session.plan session) in
  (* Drop the n2->n3 leg: the n0->n1->n3 route must carry the stream. *)
  ignore (Session.update session (Session.Remove_link { link = 3 }));
  Alcotest.(check int) "3 links survive" 3
    (T.link_count (Session.topology session));
  let warm = Session.plan session in
  let cold =
    Planner.plan (Planner.request (Session.topology session) app ~leveling)
  in
  close "warm == cold after removal" (cost_of "cold" cold)
    (cost_of "warm" warm);
  Alcotest.(check bool) "one-route cost >= two-route cost" true
    (cost_of "warm" warm >= cost0 -. 1e-6);
  (* Link ids are stable: surviving link 1 (n1->n3) keeps its id after
     the removal, so starving it must now kill the only remaining
     route. *)
  ignore
    (Session.update session
       (Session.Set_link_resource { link = 1; resource = "lbw"; value = 1. }));
  match (Session.plan session).Planner.result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no route should survive"

(* A delta naming a bad site id must be rejected before anything
   mutates: Stale_link for tombstoned links, Invalid_argument for ids
   that never existed — and the session must stay consistent and
   replannable on its previous topology. *)
let test_update_rejects_bad_ids () =
  let topo, app, leveling = diamond () in
  let session = Session.create (Planner.request topo app ~leveling) in
  ignore (Session.plan session);
  Alcotest.check_raises "never-issued link id"
    (Invalid_argument "Mutate.set_link_resource: unknown link 4") (fun () ->
      ignore
        (Session.update session
           (Session.Set_link_resource
              { link = 4; resource = "lbw"; value = 1. })));
  Alcotest.check_raises "never-issued node id"
    (Invalid_argument "Mutate.fail_node: unknown node 99") (fun () ->
      ignore (Session.update session (Session.Fail_node { node = 99 })));
  let before = Session.topology session in
  Alcotest.check_raises "infinite link value"
    (Invalid_argument "Mutate.set_link_resource: lbw must be finite, got inf")
    (fun () ->
      ignore
        (Session.update session
           (Session.Set_link_resource
              { link = 0; resource = "lbw"; value = Float.infinity })));
  Alcotest.check_raises "NaN node value"
    (Invalid_argument "Mutate.set_node_resource: cpu must be finite, got nan")
    (fun () ->
      ignore
        (Session.update session
           (Session.Set_node_resource
              { node = 1; resource = "cpu"; value = Float.nan })));
  Alcotest.(check bool) "topology untouched" true
    (Session.topology session == before);
  Alcotest.(check bool) "still warm" true (Session.is_warm session);
  ignore (Session.update session (Session.Remove_link { link = 3 }));
  Alcotest.check_raises "tombstoned link id" (T.Stale_link 3) (fun () ->
      ignore
        (Session.update session
           (Session.Set_link_resource
              { link = 3; resource = "lbw"; value = 1. })));
  Alcotest.check_raises "double removal" (T.Stale_link 3) (fun () ->
      ignore (Session.update session (Session.Remove_link { link = 3 })));
  (* rejected deltas left the session consistent: it still plans, and
     agrees with a cold run of its current (post-removal) topology *)
  let warm = Session.plan session in
  let cold =
    Planner.plan (Planner.request (Session.topology session) app ~leveling)
  in
  close "still warm == cold" (cost_of "cold" cold) (cost_of "warm" warm);
  Alcotest.(check bool) "the valid removal did apply" false
    (T.link_is_live (Session.topology session) 3)

let test_fail_node_replan () =
  let topo, app, leveling = diamond () in
  let session = Session.create (Planner.request topo app ~leveling) in
  ignore (Session.plan session);
  (* Failing n2 removes both its links; route through n1 survives. *)
  ignore (Session.update session (Session.Fail_node { node = 2 }));
  Alcotest.(check int) "2 links survive" 2
    (T.link_count (Session.topology session));
  let warm = Session.plan session in
  let cold =
    Planner.plan (Planner.request (Session.topology session) app ~leveling)
  in
  close "warm == cold after node failure" (cost_of "cold" cold)
    (cost_of "warm" warm)

(* ---------------- incremental recompilation ---------------- *)

(* Compile.recompile's contract: the reused-and-patched problem is
   structurally identical to a cold compile of the mutated topology —
   same actions in the same order (act_ids are reassigned in cold order),
   same propositions, same cost bounds. *)
let test_recompile_equals_cold_compile () =
  let sc = Scenarios.small () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  let old = Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling in
  let topo' = Mutate.set_link_resource sc.Scenarios.topo 2 "lbw" 66. in
  let pb, invalidated =
    Compile.recompile ~old
      ~node_touched:(fun _ -> false)
      ~link_touched:(fun l -> l = 2)
      topo' sc.Scenarios.app leveling
  in
  let fresh = Compile.compile topo' sc.Scenarios.app leveling in
  Alcotest.(check bool) "some actions invalidated" true (invalidated > 0);
  Alcotest.(check int) "same action count"
    (Array.length fresh.Problem.actions)
    (Array.length pb.Problem.actions);
  Alcotest.(check bool) "identical actions" true
    (pb.Problem.actions = fresh.Problem.actions)

(* ---------------- deadlines ---------------- *)

let test_deadline_compile_phase () =
  let _, req = small_request () in
  let config =
    { Planner.default_config with Planner.deadline_ms = Some 0. }
  in
  match (Planner.plan { req with Planner.config }).Planner.result with
  | Error (Planner.Deadline_exceeded { phase; expansions; best_f }) ->
      Alcotest.(check string) "gave up compiling" "compile" phase;
      Alcotest.(check int) "no expansions" 0 expansions;
      Alcotest.(check bool) "no frontier evidence" true (best_f = None)
  | Error reason ->
      Alcotest.failf "unexpected failure: %a" Planner.pp_failure reason
  | Ok _ -> Alcotest.fail "a 0ms deadline cannot produce a plan"

(* Deterministic mid-search expiry via a counting token fed straight to
   the RG search: the result must carry the same admissible best-f
   evidence a budget cutoff reports. *)
let test_deadline_mid_rg () =
  let sc = Scenarios.small () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  let pb = Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let optimal =
    match Rg.search ~max_expansions:500_000 pb plrg slrg with
    | Rg.Solution (_, _, cost), _ -> cost
    | _ -> Alcotest.fail "Small-C must be solvable"
  in
  let slrg' = Slrg.create pb plrg in
  match
    Rg.search ~max_expansions:500_000 ~deadline:(Deadline.counting 10) pb plrg
      slrg'
  with
  | Rg.Deadline_reached { expansions; best_f; _ }, stats ->
      Alcotest.(check bool) "stopped early" true (expansions <= 10);
      Alcotest.(check int) "stats agree" expansions stats.Rg.expanded;
      Alcotest.(check bool) "best_f admissible" true
        (best_f <= optimal +. 1e-6);
      Alcotest.(check bool) "best_f positive" true (best_f > 0.)
  | (Rg.Solution _ | Rg.Exhausted | Rg.Budget_exceeded _), _ ->
      Alcotest.fail "expected Deadline_reached"

(* An expired session request leaves the state intact: the next request
   without a deadline plans normally (and warm). *)
let test_deadline_does_not_poison_session () =
  let _, req = small_request () in
  let session = Session.create req in
  let cost0 = cost_of "initial" (Session.plan session) in
  let strict =
    Session.create
      { req with
        Planner.config =
          { req.Planner.config with Planner.deadline_ms = Some 0. } }
  in
  (match (Session.plan strict).Planner.result with
  | Error (Planner.Deadline_exceeded _) -> ()
  | _ -> Alcotest.fail "strict session should expire");
  (* The original session is untouched and still warm. *)
  Alcotest.(check bool) "still warm" true (Session.is_warm session);
  close "still plans" cost0 (cost_of "replan" (Session.plan session))

(* ---------------- one route per count ---------------- *)

(* The report is the one place a count is computed.  In a traced session
   each plan's Counter events carry exactly that plan's stats, once per
   name, and the registry's search counters are their sums.  The warm
   plan answers from a hot oracle, so its counts differ from the cold
   one's: a cumulative route would show here. *)
let test_counters_agree () =
  let sink, events = Telemetry.memory () in
  let telemetry = Telemetry.create [ sink ] in
  let _, req = small_request () in
  let session = Session.create { req with Planner.telemetry } in
  let plan_with_counters () =
    let seen = List.length (events ()) in
    let r = Session.plan session in
    let counters =
      List.filteri (fun i _ -> i >= seen) (events ())
      |> List.filter_map (function
           | Telemetry.Counter { name; total; _ } -> Some (name, total)
           | _ -> None)
    in
    (r.Planner.stats, List.sort compare counters)
  in
  let expected (s : Planner.stats) =
    List.sort compare
      [
        ("plrg.relevant_props", s.Planner.plrg_props);
        ("plrg.relevant_actions", s.Planner.plrg_actions);
        ("rg.created", s.Planner.rg_created);
        ("rg.expanded", s.Planner.rg_expanded);
        ("rg.replay_pruned", s.Planner.replay_pruned);
        ("rg.final_replay_rejected", s.Planner.final_replay_rejected);
        ("rg.duplicates", s.Planner.rg_duplicates);
        ("rg.order_repaired", s.Planner.order_repaired);
        ("rg.slrg_deferred", s.Planner.slrg_deferred);
        ("rg.slrg_saved", s.Planner.slrg_saved);
        ("slrg.queries", s.Planner.slrg_queries);
        ("slrg.cache_hits", s.Planner.slrg_cache_hits);
        ("slrg.suffix_harvested", s.Planner.slrg_suffix_harvested);
        ("slrg.bound_promoted", s.Planner.slrg_bound_promoted);
      ]
  in
  let counts = Alcotest.(list (pair string int)) in
  let cold, cold_counters = plan_with_counters () in
  let warm, warm_counters = plan_with_counters () in
  Alcotest.check counts "cold plan's counters" (expected cold) cold_counters;
  Alcotest.check counts "warm plan's counters" (expected warm) warm_counters;
  Alcotest.(check bool) "warm oracle runs fewer queries" true
    (warm.Planner.slrg_queries < cold.Planner.slrg_queries);
  let snap = Session.metrics_snapshot session in
  Alcotest.(check int) "rg.searches" 2
    (Registry.counter_value snap "rg.searches");
  List.iter
    (fun (name, f) ->
      Alcotest.(check int) name (f cold + f warm)
        (Registry.counter_value snap name))
    [
      ("rg.created", fun (s : Planner.stats) -> s.Planner.rg_created);
      ("rg.expanded", fun s -> s.Planner.rg_expanded);
      ("rg.duplicates", fun s -> s.Planner.rg_duplicates);
      ("slrg.queries", fun s -> s.Planner.slrg_queries);
      ("slrg.cache_hits", fun s -> s.Planner.slrg_cache_hits);
    ]

let suite =
  [
    ("warm skips compile", `Quick, test_warm_skips_compile);
    ("one-shot == cold session", `Quick, test_one_shot_plan_is_cold_session);
    ("update then warm == cold", `Quick, test_update_then_warm_equals_cold);
    ("infeasible and back", `Quick, test_update_to_infeasible_and_back);
    ("remove link, replan", `Quick, test_remove_link_replan);
    ("update rejects bad ids", `Quick, test_update_rejects_bad_ids);
    ("fail node, replan", `Quick, test_fail_node_replan);
    ("recompile == cold compile", `Quick, test_recompile_equals_cold_compile);
    ("deadline in compile", `Quick, test_deadline_compile_phase);
    ("deadline mid-RG", `Quick, test_deadline_mid_rg);
    ("deadline leaves session intact", `Quick,
     test_deadline_does_not_poison_session);
    ("counters agree", `Quick, test_counters_agree);
  ]

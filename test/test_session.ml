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
module Action = Sekitei_core.Action
module I = Sekitei_util.Interval
module Deadline = Sekitei_util.Deadline
module Telemetry = Sekitei_telemetry.Telemetry
module Registry = Sekitei_telemetry.Registry
module Scenarios = Sekitei_harness.Scenarios
module Media = Sekitei_domains.Media
module T = Sekitei_network.Topology
module Mutate = Sekitei_network.Mutate
module Model = Sekitei_spec.Model
module Expr = Sekitei_expr.Expr

let close = Alcotest.(check (float 1e-6))

let small_request () =
  let sc = Scenarios.small () in
  (sc, Planner.request sc.Scenarios.topo sc.Scenarios.app
         ~leveling:(Media.leveling Media.C sc.Scenarios.app))

(* Small's app with the server's supply read off its node's cpu: 200 at
   the default 30, so a cpu change at the server moves the initial
   section. *)
let cpu_supplied_app (sc : Scenarios.t) =
  let app = sc.Scenarios.app in
  {
    app with
    Model.components =
      List.map
        (fun (c : Model.component) ->
          if String.equal c.Model.comp_name "Server" then
            {
              c with
              Model.effects = [ ("M", "ibw", Expr.parse "node.cpu * 20 / 3") ];
            }
          else c)
        app.Model.components;
  }

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
    cold.Planner.stats.Planner.compile_actions
    warm.Planner.stats.Planner.compile_actions;
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
    one_shot.Planner.stats.Planner.rg.created
    cold.Planner.stats.Planner.rg.created;
  Alcotest.(check int) "same slrg_nodes"
    one_shot.Planner.stats.Planner.slrg.nodes
    cold.Planner.stats.Planner.slrg.nodes

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

(* A raise that stays inside its level (Small-C's WAN link, 70 -> 80
   lbw) changes the touched actions' checked levels and nothing the
   graph phases read: the session keeps its oracle, so the re-plan
   evicts nothing and answers every SLRG query from the cache, while
   replay plans against the new capacity. *)
let test_update_inside_level_keeps_oracle () =
  let sc, req = small_request () in
  let session = Session.create req in
  ignore (Session.plan session);
  ignore
    (Session.update session
       (Session.Set_link_resource { link = 2; resource = "lbw"; value = 80. }));
  let warm = Session.plan session in
  Alcotest.(check bool) "update recompiled the link's actions" true
    (warm.Planner.stats.Planner.invalidated_actions > 0);
  Alcotest.(check int) "nothing evicted" 0
    warm.Planner.stats.Planner.evicted_entries;
  Alcotest.(check int) "no SLRG search" 0
    warm.Planner.stats.Planner.slrg.queries;
  let pb = Option.get (Session.problem session) in
  close "the session plans against the new capacity" 80.
    (Problem.link_cap pb 2 "lbw");
  let cold =
    Planner.plan
      (Planner.request (Session.topology session) sc.Scenarios.app
         ~leveling:req.Planner.leveling)
  in
  close "warm == cold cost" (cost_of "cold" cold) (cost_of "warm" warm)

(* The predicate behind that reuse: it finds a copy of a compiled
   problem [Same] when it differs only in what replay alone reads,
   [Fewer] when actions were only taken away (with the map naming each
   survivor's new id), and [Changed] when any field the graph phases
   read was edited or an action was added. *)
let test_leveled_diff () =
  let sc = Scenarios.small () in
  let app = sc.Scenarios.app in
  let leveling = Media.leveling Media.C app in
  let pb = Compile.compile sc.Scenarios.topo app leveling in
  let n_props = Array.length pb.Problem.init in
  let n = Array.length pb.Problem.actions in
  let edit_action f =
    (* the first action with a precondition, edited by [f] *)
    let i =
      Option.get
        (Array.find_index
           (fun (a : Action.t) -> Array.length a.Action.pre > 0)
           pb.Problem.actions)
    in
    {
      pb with
      Problem.actions =
        Array.mapi (fun j a -> if j = i then f a else a) pb.Problem.actions;
    }
  in
  let without keep =
    let kept =
      List.filter (fun (a : Action.t) -> keep a.Action.act_id)
        (Array.to_list pb.Problem.actions)
    in
    {
      pb with
      Problem.actions =
        Array.of_list
          (List.mapi
             (fun i (a : Action.t) -> { a with Action.act_id = i })
             kept);
    }
  in
  let bump arr = Array.map (fun p -> (p + 1) mod n_props) arr in
  let show = function
    | Problem.Same -> "Same"
    | Problem.Fewer _ -> "Fewer"
    | Problem.Changed -> "Changed"
  in
  let check name expected other =
    Alcotest.(check string) name expected
      (show (Problem.leveled_diff ~old:pb other))
  in
  (* [Fewer]'s map sends each kept action to a field-equal one, in
     order, and names every new action once. *)
  let check_fewer name (other : Problem.t) expect_map =
    match Problem.leveled_diff ~old:pb other with
    | Problem.Fewer map ->
        Alcotest.(check (array int)) (name ^ ": map") expect_map map
    | d -> Alcotest.failf "%s: expected Fewer, got %s" name (show d)
  in
  check "itself" "Same" pb;
  check "fresh copies of every array" "Same"
    {
      pb with
      Problem.init = Array.copy pb.Problem.init;
      goal_props = Array.copy pb.Problem.goal_props;
      actions =
        Array.map
          (fun (a : Action.t) ->
            {
              a with
              Action.pre = Array.copy a.Action.pre;
              add_closure = Array.copy a.Action.add_closure;
            })
          pb.Problem.actions;
    };
  check "checked levels differ" "Same"
    {
      pb with
      Problem.actions =
        Array.map
          (fun (a : Action.t) ->
            {
              a with
              Action.checked_node = [| ("cpu", I.point 1.) |];
              checked_link = [| ("lbw", I.point 2.) |];
            })
          pb.Problem.actions;
    };
  check "one action's pre" "Changed"
    (edit_action (fun a -> { a with Action.pre = bump a.Action.pre }));
  check "one action's add_closure" "Changed"
    (edit_action (fun a ->
         { a with Action.add_closure = bump a.Action.add_closure }));
  check "one action's cost_lb" "Changed"
    (edit_action (fun a -> { a with Action.cost_lb = a.Action.cost_lb +. 1. }));
  check "init" "Changed"
    {
      pb with
      Problem.init =
        Array.mapi (fun p b -> if p = 0 then not b else b) pb.Problem.init;
    };
  check "goal_props" "Changed"
    { pb with Problem.goal_props = bump pb.Problem.goal_props };
  check "one action more" "Changed"
    {
      pb with
      Problem.actions =
        Array.append pb.Problem.actions [| pb.Problem.actions.(0) |];
    };
  (* One action gone and the first two swapped: fewer, but out of
     order. *)
  check "fewer, out of order" "Changed"
    (let moved i j = { pb.Problem.actions.(i) with Action.act_id = j } in
     {
       pb with
       Problem.actions =
         Array.init (n - 1) (fun j ->
             if j = 0 then moved 1 0
             else if j = 1 then moved 0 1
             else moved (j + 1) j);
     });
  check_fewer "last action gone" (without (fun a -> a < n - 1))
    (Array.init n (fun a -> if a < n - 1 then a else -1));
  check_fewer "every third action gone"
    (without (fun a -> a mod 3 <> 1))
    (Array.init n (fun a -> if a mod 3 = 1 then -1 else a - ((a + 1) / 3)));
  (* Compiled problems: a raise inside the WAN link's level keeps the
     leveled problem, a cut below a cutpoint only drops actions, and a
     raise above one adds some. *)
  let at lbw =
    Compile.compile
      (Mutate.set_link_resource sc.Scenarios.topo 2 "lbw" lbw)
      app leveling
  in
  check "lbw 80 (same level)" "Same" (at 80.);
  check "lbw 66 (below a cutpoint)" "Fewer" (at 66.);
  Alcotest.(check string) "lbw 66 -> 70 (back above it)" "Changed"
    (show (Problem.leveled_diff ~old:(at 66.) pb))

(* An update that adds or alters actions ([Changed]) drops the oracle
   and counts every entry it held as evicted; the re-plan is then a cold
   search of a problem identical to a cold compile's, so it matches a
   cold [Planner.plan] exactly: the same steps, the same cost bound bit
   for bit and the same search counts.  On Small-C, lbw 66 -> 70 raises
   the WAN link back above a cutpoint (see "leveled_diff"); on the
   cpu-supplied app, a cpu change at the server moves [init]. *)
let test_changed_update_starts_over () =
  let check name (sc : Scenarios.t) app first second =
    let leveling = Media.leveling Media.C app in
    let session =
      Session.create (Planner.request sc.Scenarios.topo app ~leveling)
    in
    ignore (Session.plan session);
    ignore (Session.update session first);
    ignore (Session.plan session);
    let held = Slrg.entries (Option.get (Session.oracle session)) in
    Alcotest.(check bool) (name ^ ": the oracle held entries") true (held > 0);
    ignore (Session.update session second);
    Alcotest.(check bool) (name ^ ": no oracle after the update") true
      (Session.oracle session = None);
    Alcotest.(check bool) (name ^ ": still warm") true
      (Session.is_warm session);
    let warm = Session.plan session in
    let cold =
      Planner.plan (Planner.request (Session.topology session) app ~leveling)
    in
    let ws = warm.Planner.stats and cs = cold.Planner.stats in
    Alcotest.(check int) (name ^ ": every held entry evicted") held
      ws.Planner.evicted_entries;
    (match (warm.Planner.result, cold.Planner.result) with
    | Ok w, Ok c ->
        Alcotest.(check bool) (name ^ ": same steps") true
          (w.Plan.steps = c.Plan.steps);
        Alcotest.(check int64) (name ^ ": cost_lb bit for bit")
          (Int64.bits_of_float c.Plan.cost_lb)
          (Int64.bits_of_float w.Plan.cost_lb)
    | _ -> Alcotest.failf "%s: expected two plans" name);
    List.iter
      (fun (what, f) -> Alcotest.(check int) (name ^ ": " ^ what) (f cs) (f ws))
      [
        ("slrg_queries", fun (s : Planner.stats) -> s.Planner.slrg.queries);
        ("slrg_nodes", fun s -> s.Planner.slrg.nodes);
        ("rg_created", fun s -> s.Planner.rg.created);
        ("rg_expanded", fun s -> s.Planner.rg.expanded);
      ]
  in
  let sc = Scenarios.small () in
  let lbw v =
    Session.Set_link_resource { link = 2; resource = "lbw"; value = v }
  in
  let server_cpu v =
    Session.Set_node_resource { node = 4; resource = "cpu"; value = v }
  in
  check "lbw 66 -> 70" sc sc.Scenarios.app (lbw 66.) (lbw 70.);
  check "server cpu 14 -> 30" sc (cpu_supplied_app sc) (server_cpu 14.)
    (server_cpu 30.)

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
  Alcotest.check_raises "negative node value"
    (Invalid_argument
       "Mutate.set_node_resource: cpu must be non-negative, got -5")
    (fun () ->
      ignore
        (Session.update session
           (Session.Set_node_resource
              { node = 0; resource = "cpu"; value = -5. })));
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
   same initial section, goals and supports tables — and it re-grounds
   exactly the ground actions at the sites whose capacities changed.  A
   session recompiles each delta from the problem the previous one
   produced, so the deltas run as one chain, on Small's app with the
   server's supply read off its node's cpu: a cut below a cutpoint and
   the raise back above it, a capacity set to the value it has, a cpu
   change, a cpu change at the server (which moves the initial section),
   a removed link and a failed node. *)
let test_recompile_equals_cold_compile () =
  let sc = Scenarios.small () in
  let app = cpu_supplied_app sc in
  let leveling = Media.leveling Media.C app in
  (* The ground actions of [old] at the given sites. *)
  let at ~nodes ~links (old : Problem.t) =
    Array.fold_left
      (fun n (a : Action.t) ->
        match a.Action.kind with
        | Action.Place { node; _ } when List.mem node nodes -> n + 1
        | Action.Cross { link; _ } when List.mem link links -> n + 1
        | _ -> n)
      0 old.Problem.ground_actions
  in
  let step (old : Problem.t) (name, mutate, nodes, links, init_moves) =
    let topo = mutate old.Problem.topo in
    let pb, invalidated = Compile.recompile ~old topo app leveling in
    let fresh = Compile.compile topo app leveling in
    let expected = at ~nodes ~links old in
    Alcotest.(check bool) (name ^ ": re-grounds iff a site changed") true
      ((expected > 0) = (nodes <> [] || links <> []));
    Alcotest.(check int) (name ^ ": invalidated") expected invalidated;
    Alcotest.(check bool) (name ^ ": the initial section moved") init_moves
      (old.Problem.init <> fresh.Problem.init);
    let same field f =
      Alcotest.(check bool) (name ^ ": same " ^ field) true
        (compare (f pb) (f fresh) = 0)
    in
    same "actions" (fun p -> p.Problem.actions);
    same "ground actions" (fun p -> p.Problem.ground_actions);
    same "pruned count" (fun p -> p.Problem.pruned_actions);
    same "supports" (fun p -> p.Problem.supports);
    same "init" (fun p -> p.Problem.init);
    same "init_consumed" (fun p -> p.Problem.init_consumed);
    same "sources" (fun p -> p.Problem.sources);
    same "goal_props" (fun p -> p.Problem.goal_props);
    same "comp_allowed_node" (fun p -> p.Problem.comp_allowed_node);
    same "iface_max" (fun p -> p.Problem.iface_max);
    pb
  in
  let lbw v t = Mutate.set_link_resource t 2 "lbw" v in
  let cpu node v t = Mutate.set_node_resource t node "cpu" v in
  let remove link t = Mutate.remove_link t link in
  let fail node t = Mutate.fail_node t node in
  ignore
    (List.fold_left step
       (Compile.compile sc.Scenarios.topo app leveling)
       [
         ("lbw 66", lbw 66., [], [ 2 ], false);
         ("lbw 66 -> 70", lbw 70., [], [ 2 ], false);
         ("lbw 70 again", lbw 70., [], [], false);
         ("cpu 10 at n3", cpu 3 10., [ 3 ], [], false);
         ("server cpu 14", cpu 4 14., [ 4 ], [], true);
         ("remove link 1", remove 1, [], [ 1 ], false);
         (* its links: 1 (removed above) and 2 *)
         ("fail node 2", fail 2, [ 2 ], [ 1; 2 ], false);
       ]
      : Problem.t)

(* ---------------- deadlines ---------------- *)

let test_deadline_compile_phase () =
  let _, req = small_request () in
  let config =
    { Planner.default_config with Planner.deadline_ms = Some 0. }
  in
  match (Planner.plan { req with Planner.config }).Planner.result with
  | Error (Planner.Deadline_exceeded { phase; expansions; frontier }) ->
      Alcotest.(check string) "gave up compiling" "compile" phase;
      Alcotest.(check int) "no expansions" 0 expansions;
      Alcotest.(check bool) "no frontier evidence" true (frontier = None)
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
    match Rg.search ~max_expansions:500_000 pb slrg with
    | Rg.Solution (_, _, cost), _ -> cost
    | _ -> Alcotest.fail "Small-C must be solvable"
  in
  let slrg' = Slrg.create pb plrg in
  match
    Rg.search ~max_expansions:500_000 ~deadline:(Deadline.counting 10) pb slrg'
  with
  | ( Rg.Cutoff { by = `Deadline; expansions; frontier = { best_f; unmet; _ } },
      stats ) ->
      Alcotest.(check bool) "stopped early" true (expansions <= 10);
      Alcotest.(check int) "stats agree" expansions stats.Rg.expanded;
      Alcotest.(check bool) "best_f admissible" true
        (best_f <= optimal +. 1e-6);
      Alcotest.(check bool) "best_f positive" true (best_f > 0.);
      Alcotest.(check bool) "unmet preconditions rendered" true (unmet <> [])
  | (Rg.Solution _ | Rg.Exhausted | Rg.Cutoff { by = `Budget; _ }), _ ->
      Alcotest.fail "expected a deadline cutoff"

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

(* The table's rows, spelled out so that a rename or a change of stage
   shows up here. *)
let count_rows =
  Planner.
    [
      ("compile.actions", Compiled);
      ("plrg.relevant_props", Compiled);
      ("plrg.relevant_actions", Compiled);
      ("slrg.nodes", Searched);
      ("slrg.queries", Searched);
      ("rg.created", Searched);
      ("rg.open_left", Searched);
      ("rg.expanded", Searched);
      ("rg.replay_pruned", Searched);
      ("rg.final_replay_rejected", Searched);
      ("rg.duplicates", Searched);
      ("rg.order_repaired", Searched);
      ("slrg.cache_hits", Searched);
      ("slrg.suffix_harvested", Searched);
      ("slrg.bound_promoted", Searched);
      ("slrg.deferred", Searched);
      ("slrg.saved", Searched);
      ("session.invalidated_actions", Requested);
      ("session.evicted_entries", Requested);
    ]

let stage_name = function
  | Planner.Requested -> "requested"
  | Planner.Compiled -> "compiled"
  | Planner.Searched -> "searched"

(* Plan once in [session], returning the report and the Counter events
   the plan added to the trace [events] reads, sorted by name. *)
let plan_with_counters session events =
  let seen = List.length (events ()) in
  let r = Session.plan session in
  let counters =
    List.filteri (fun i _ -> i >= seen) (events ())
    |> List.filter_map (function
         | Telemetry.Counter { name; total; _ } -> Some (name, total)
         | _ -> None)
  in
  (r, List.sort compare counters)

(* The report is the one place a count is computed and {!Session.counts}
   the one place it is named.  In a traced session each plan's Counter
   events carry exactly that plan's stats, once per row, and each
   registry counter is their sum.  The warm plan answers from a hot
   oracle, so its counts differ from the cold one's: a cumulative route
   would show here. *)
let test_counters_agree () =
  let rows = List.map (fun (name, stage) -> (name, stage_name stage)) in
  Alcotest.(check (list (pair string string))) "the table's rows"
    (rows count_rows)
    (rows
       (List.map
          (fun (c : Planner.count) -> (c.Planner.name, c.Planner.stage))
          Planner.counts));
  let sink, events = Telemetry.memory () in
  let telemetry = Telemetry.create [ sink ] in
  let _, req = small_request () in
  let session = Session.create { req with Planner.telemetry } in
  let expected (r : Planner.report) =
    List.sort compare
      (List.map
         (fun (c : Planner.count) -> (c.Planner.name, c.Planner.get r.stats))
         Planner.counts)
  in
  let counts = Alcotest.(list (pair string int)) in
  let cold, cold_counters = plan_with_counters session events in
  let warm, warm_counters = plan_with_counters session events in
  Alcotest.check counts "cold plan's counters" (expected cold) cold_counters;
  Alcotest.check counts "warm plan's counters" (expected warm) warm_counters;
  Alcotest.(check bool) "warm oracle runs fewer queries" true
    (warm.stats.Planner.slrg.queries < cold.stats.Planner.slrg.queries);
  let snap = Session.metrics_snapshot session in
  Alcotest.(check int) "rg.searches" 2
    (Registry.counter_value snap "rg.searches");
  List.iter
    (fun (c : Planner.count) ->
      Alcotest.(check int) c.Planner.name
        (c.Planner.get cold.stats + c.Planner.get warm.stats)
        (Registry.counter_value snap c.Planner.name))
    Planner.counts

(* A row goes out only once its stage is reached, to the trace and the
   registry alike: an invalid spec gets only the session counts, an
   unreachable goal the compile-stage counts too, and a cut-off search
   every count. *)
let test_counts_gated_by_stage () =
  let names_upto stage =
    List.filter_map
      (fun (name, s) -> if s <= stage then Some name else None)
      count_rows
    |> List.sort compare
  in
  let check label req ~failure stage =
    let sink, events = Telemetry.memory () in
    let session =
      Session.create { req with Planner.telemetry = Telemetry.create [ sink ] }
    in
    let r, counters = plan_with_counters session events in
    (match r.Planner.result with
    | Error reason when failure reason -> ()
    | Error reason ->
        Alcotest.failf "%s: wrong failure: %a" label Planner.pp_failure reason
    | Ok _ -> Alcotest.failf "%s: expected a failure" label);
    let names = Alcotest.(list string) in
    Alcotest.check names (label ^ ": trace") (names_upto stage)
      (List.map fst counters);
    Alcotest.check names (label ^ ": registry") (names_upto stage)
      (List.filter
         (fun n -> List.mem_assoc n count_rows)
         (List.map fst (Registry.counters (Session.metrics_snapshot session)))
      |> List.sort compare)
  in
  let app = Media.app ~server:0 ~client:1 () in
  check "invalid spec"
    (Planner.request
       (Sekitei_network.Generators.line_kinds [ T.Wan ])
       { app with Model.goals = [] })
    ~failure:(function Planner.Invalid_spec _ -> true | _ -> false)
    Planner.Requested;
  let file = "examples/specs/infeasible.spec" in
  let path = if Sys.file_exists ("../" ^ file) then "../" ^ file else file in
  let doc =
    Sekitei_spec.Dsl.parse_document
      (In_channel.with_open_text path In_channel.input_all)
  in
  check "unreachable goal"
    (Planner.request
       (Option.get doc.Sekitei_spec.Dsl.topo)
       doc.Sekitei_spec.Dsl.app ~leveling:doc.Sekitei_spec.Dsl.leveling)
    ~failure:(function Planner.Unreachable_goal _ -> true | _ -> false)
    Planner.Compiled;
  let _, req = small_request () in
  check "search limit"
    { req with
      Planner.config =
        { req.Planner.config with Planner.rg_max_expansions = 1 } }
    ~failure:(function Planner.Search_limit _ -> true | _ -> false)
    Planner.Searched

let suite =
  [
    ("warm skips compile", `Quick, test_warm_skips_compile);
    ("one-shot == cold session", `Quick, test_one_shot_plan_is_cold_session);
    ("update then warm == cold", `Quick, test_update_then_warm_equals_cold);
    ("update inside a level keeps the oracle", `Quick,
     test_update_inside_level_keeps_oracle);
    ("leveled_diff", `Quick, test_leveled_diff);
    ("changed update starts the oracle over", `Quick,
     test_changed_update_starts_over);
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
    ("counts gated by stage", `Quick, test_counts_gated_by_stage);
  ]

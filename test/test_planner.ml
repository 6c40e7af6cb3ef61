(* Integration tests for the full planner: the paper's Tiny and Small
   instances, all five level scenarios, failure modes, plan validity. *)

module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Replay = Sekitei_core.Replay
module Compile = Sekitei_core.Compile
module Problem = Sekitei_core.Problem
module Postprocess = Sekitei_core.Postprocess
module Media = Sekitei_domains.Media
module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Scenarios = Sekitei_harness.Scenarios
module G = Sekitei_network.Generators
module T = Sekitei_network.Topology

let solve (sc : Scenarios.t) level =
  let leveling = Media.leveling level sc.Scenarios.app in
  ( Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling),
    Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling )

let expect_plan what (report : Planner.report) =
  match report.Planner.result with
  | Ok p -> p
  | Error r -> Alcotest.failf "%s: no plan (%a)" what Planner.pp_failure r

let expect_failure what (report : Planner.report) =
  match report.Planner.result with
  | Ok _ -> Alcotest.failf "%s: unexpected plan" what
  | Error r -> r

(* ---------------- Tiny (paper Figures 3-4) ---------------- *)

let test_tiny_greedy_fails () =
  let o, _ = solve (Scenarios.tiny ()) Media.A in
  match expect_failure "tiny A" o with
  | Planner.Resource_exhausted -> ()
  | r -> Alcotest.failf "wrong reason: %a" Planner.pp_failure r

let test_tiny_b_plan () =
  let o, _ = solve (Scenarios.tiny ()) Media.B in
  let p = expect_plan "tiny B" o in
  Alcotest.(check int) "7 actions" 7 (Plan.length p);
  (* With [0,100) infima at 0, the bound is the action count. *)
  Alcotest.(check (float 1e-9)) "bound = length" 7. p.Plan.cost_lb

let test_tiny_cde_optimal () =
  let sc = Scenarios.tiny () in
  let bounds =
    List.map
      (fun level ->
        let o, _ = solve sc level in
        (expect_plan "tiny" o).Plan.cost_lb)
      [ Media.C; Media.D; Media.E ]
  in
  List.iter
    (fun b -> Alcotest.(check (float 1e-9)) "same optimal bound" 52.45 b)
    bounds

let test_tiny_plan_contents () =
  let o, pb = solve (Scenarios.tiny ()) Media.C in
  let p = expect_plan "tiny C" o in
  let placements = Plan.placements pb p in
  List.iter
    (fun comp ->
      Alcotest.(check bool) (comp ^ " placed") true
        (List.mem_assoc comp placements))
    [ "Splitter"; "Zip"; "Unzip"; "Merger"; "Client" ];
  Alcotest.(check (option int)) "splitter at server" (Some 0)
    (List.assoc_opt "Splitter" placements);
  Alcotest.(check (option int)) "merger at client" (Some 1)
    (List.assoc_opt "Merger" placements);
  (* The M stream itself never crosses the 70-unit link. *)
  List.iter
    (fun (iface, _, _) ->
      Alcotest.(check bool) "only Z and I cross" true
        (List.mem iface [ "Z"; "I" ]))
    (Plan.crossings pb p)

let test_tiny_delivers_demand () =
  let o, pb = solve (Scenarios.tiny ()) Media.C in
  let p = expect_plan "tiny C" o in
  let m = Problem.iface_index pb "M" in
  let delivered =
    List.find_map
      (fun (i, n, v) -> if i = m && n = 1 then Some v else None)
      p.Plan.metrics.Replay.delivered
  in
  Alcotest.(check bool) "at least demand" true (Option.get delivered >= 90.)

(* ---------------- Small (paper Figure 9) ---------------- *)

let test_small_b_shortest () =
  let o, _ = solve (Scenarios.small ()) Media.B in
  let p = expect_plan "small B" o in
  Alcotest.(check int) "10 actions" 10 (Plan.length p);
  Alcotest.(check (float 1e-6)) "LAN peak 100" 100. p.Plan.metrics.Replay.lan_peak

let test_small_c_optimal () =
  let o, _ = solve (Scenarios.small ()) Media.C in
  let p = expect_plan "small C" o in
  Alcotest.(check int) "13 actions" 13 (Plan.length p);
  Alcotest.(check (float 1e-6)) "LAN peak 65" 65. p.Plan.metrics.Replay.lan_peak;
  Alcotest.(check (float 1e-9)) "bound" 76. p.Plan.cost_lb

let test_small_optimal_cheaper_than_shortest () =
  (* Under the C cost bounds, the 13-action plan must beat the 10-action
     plan's bound-evaluated cost; the planner's choice proves it. *)
  let o_b, _ = solve (Scenarios.small ()) Media.B in
  let o_c, _ = solve (Scenarios.small ()) Media.C in
  let pb' = expect_plan "B" o_b and pc = expect_plan "C" o_c in
  Alcotest.(check bool) "C realized <= B realized" true
    (pc.Plan.metrics.Replay.realized_cost
    <= pb'.Plan.metrics.Replay.realized_cost)

let test_small_greedy_fails () =
  let sc = Scenarios.small () in
  let o = Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app) in
  match expect_failure "small greedy" o with
  | Planner.Resource_exhausted -> ()
  | r -> Alcotest.failf "wrong reason: %a" Planner.pp_failure r

let test_small_d_e_match_c () =
  let sc = Scenarios.small () in
  List.iter
    (fun level ->
      let o, _ = solve sc level in
      let p = expect_plan "small" o in
      Alcotest.(check int) "13 actions" 13 (Plan.length p);
      Alcotest.(check (float 1e-9)) "bound 76" 76. p.Plan.cost_lb)
    [ Media.D; Media.E ]

(* ---------------- soundness: every plan validates ---------------- *)

let test_plans_replay_from_init () =
  List.iter
    (fun (sc, level) ->
      let o, pb = solve sc level in
      match o.Planner.result with
      | Error _ -> ()
      | Ok p -> (
          match Replay.run pb ~mode:Replay.From_init p.Plan.steps with
          | Ok m ->
              (* metrics must agree with the plan's own record *)
              Alcotest.(check (float 1e-6)) "stable lan peak"
                p.Plan.metrics.Replay.lan_peak m.Replay.lan_peak
          | Error f ->
              Alcotest.failf "%s/%s invalid plan: %s" sc.Scenarios.name
                (Media.scenario_name level) (Lazy.force f.Replay.reason)))
    (List.concat_map
       (fun sc -> List.map (fun l -> (sc, l)) Media.all_scenarios)
       [ Scenarios.tiny (); Scenarios.small () ])

let test_cost_lb_below_realized () =
  List.iter
    (fun level ->
      let o, _ = solve (Scenarios.small ()) level in
      match o.Planner.result with
      | Error _ -> ()
      | Ok p ->
          Alcotest.(check bool) "bound <= realized" true
            (p.Plan.cost_lb <= p.Plan.metrics.Replay.realized_cost +. 1e-9))
    Media.all_scenarios

(* ---------------- optimality vs exhaustive baseline ---------------- *)

let test_optimality_exhaustive_micro () =
  (* On a micro-instance small enough for exhaustive enumeration, the A*
     answer must be the true optimum.  Three nodes in a line, one stream S
     (supply 20, demand >= 10), a useless Booster component tempting the
     search; all plans up to length 4 over all leveled actions are
     enumerated and replayed. *)
  let module E = Sekitei_expr.Expr in
  let topo = G.line 3 in
  let app =
    {
      Model.interfaces =
        [ Model.iface ~properties:[ Model.property "ibw" ] "S" ];
      components =
        [
          Model.component ~provides:[ "S" ]
            ~effects:[ ("S", "ibw", E.Const 20.) ]
            ~placeable:false "Src";
          Model.component ~requires:[ "S" ]
            ~conditions:[ E.parse_cond "S.ibw >= 10" ]
            ~place_cost:(E.parse "1 + S.ibw / 10") "Snk";
          Model.component ~requires:[ "S" ] ~provides:[ "S" ]
            ~effects:[ ("S", "ibw", E.parse "S.ibw") ]
            ~consumes:[ ("cpu", E.parse "S.ibw / 10") ]
            ~place_cost:(E.parse "2 + S.ibw / 10") "Booster";
        ];
      pre_placed = [ ("Src", 0) ];
      goals = [ Model.Placed ("Snk", 2) ];
    }
  in
  let leveling =
    Leveling.with_iface Leveling.empty "S" "ibw" [ 10.; 15.; 20. ]
  in
  let pb = Compile.compile topo app leveling in
  let o = Planner.plan (Planner.request topo app ~leveling) in
  let best =
    match o.Planner.result with
    | Ok p -> p
    | Error r -> Alcotest.failf "micro: no plan (%a)" Planner.pp_failure r
  in
  (* Exhaustive enumeration: all action sequences up to length 4. *)
  let goal = pb.Problem.goal_props.(0) in
  let cheapest = ref Float.infinity in
  let rec dfs tail_rev cost depth =
    (if
       List.exists
         (fun (a : Sekitei_core.Action.t) ->
           Array.exists (fun p -> p = goal) a.Sekitei_core.Action.add_closure)
         tail_rev
       && Result.is_ok (Replay.run pb ~mode:Replay.From_init (List.rev tail_rev))
     then if cost < !cheapest then cheapest := cost);
    if depth < 4 then
      Array.iter
        (fun (a : Sekitei_core.Action.t) ->
          dfs (a :: tail_rev) (cost +. a.Sekitei_core.Action.cost_lb) (depth + 1))
        pb.Problem.actions
  in
  dfs [] 0. 0;
  Alcotest.(check (float 1e-9)) "A* matches exhaustive optimum" !cheapest
    best.Plan.cost_lb

(* ---------------- failure injection ---------------- *)

let test_unreachable_goal () =
  let app = Media.app ~server:0 ~client:1 () in
  let topo = T.make ~nodes:[ T.node 0 "n0"; T.node 1 "n1" ] ~links:[] in
  let o = Planner.plan (Planner.request topo app ~leveling:(Media.leveling Media.C app)) in
  match expect_failure "partitioned" o with
  | Planner.Unreachable_goal _ -> ()
  | r -> Alcotest.failf "wrong reason: %a" Planner.pp_failure r

let test_invalid_spec_reported () =
  let app = Media.app ~server:0 ~client:1 () in
  let bad = { app with Model.goals = [] } in
  let o = Planner.plan (Planner.request (G.line_kinds [ T.Wan ]) bad) in
  match expect_failure "invalid" o with
  | Planner.Invalid_spec _ -> ()
  | r -> Alcotest.failf "wrong reason: %a" Planner.pp_failure r

let test_search_budget () =
  let sc = Scenarios.small () in
  let config =
    { Planner.default_config with Planner.rg_max_expansions = 1 }
  in
  let o =
    Planner.plan
      (Planner.request ~config sc.Scenarios.topo sc.Scenarios.app
         ~leveling:(Media.leveling Media.C sc.Scenarios.app))
  in
  match expect_failure "budget" o with
  | Planner.Search_limit _ -> ()
  | r -> Alcotest.failf "wrong reason: %a" Planner.pp_failure r

let test_insufficient_cpu_everywhere () =
  (* CPU 1 on every node: only the direct (impossible) route exists. *)
  let topo =
    T.make
      ~nodes:[ T.node ~cpu:1. 0 "n0"; T.node ~cpu:1. 1 "n1" ]
      ~links:[ T.link T.Wan 0 0 1 ]
  in
  let app = Media.app ~server:0 ~client:1 () in
  let o = Planner.plan (Planner.request topo app ~leveling:(Media.leveling Media.D app)) in
  (* Compile-time pruning of CPU-infeasible placements can make the goal
     logically unreachable; either failure reason is correct. *)
  match expect_failure "no cpu" o with
  | Planner.Resource_exhausted | Planner.Unreachable_goal _ -> ()
  | r -> Alcotest.failf "wrong reason: %a" Planner.pp_failure r

let test_direct_when_wide_enough () =
  (* A 150-unit link admits the direct 2-action plan; the planner must
     prefer it over any splitting contraption. *)
  let topo = G.line_kinds [ T.Lan ] in
  let app = Media.app ~server:0 ~client:1 () in
  let o = Planner.plan (Planner.request topo app ~leveling:(Media.leveling Media.C app)) in
  let p = expect_plan "direct" o in
  Alcotest.(check int) "cross + client" 2 (Plan.length p)

let test_stats_populated () =
  let o, _ = solve (Scenarios.tiny ()) Media.C in
  let s = o.Planner.stats in
  Alcotest.(check bool) "actions" true (s.Planner.compile_actions > 0);
  Alcotest.(check bool) "plrg" true (s.Planner.plrg_relevant_props > 0);
  Alcotest.(check bool) "rg" true (s.Planner.rg.created > 0);
  Alcotest.(check bool) "deferred >= saved >= 0" true
    (s.Planner.rg.slrg_deferred >= s.Planner.rg.slrg_saved
    && s.Planner.rg.slrg_saved >= 0);
  Alcotest.(check bool) "deferred" true (s.Planner.rg.slrg_deferred > 0);
  Alcotest.(check bool) "time" true (s.Planner.t_total_ms >= 0.)

(* ---------------- search trajectory ---------------- *)

(* What the search does on Tiny and Small at every level and on
   Large-C: the outcome (the plan's labels, in order, and its cost bound
   in exact hex, or the failure's constructor), the first expansions,
   the candidate tails rejected by from-init validation, and the SLRG
   oracle's set nodes.  A change to the search's order of work moves
   these before it moves a plan; a deliberate one pastes the rows the
   failure message lists. *)
let trajectories =
  [
    ("Tiny-A",
     "Resource_exhausted",
     3, 1, 4);
    ("Tiny-B",
     "place(Splitter,n0)[M:0] place(Zip,n0)[T:0] cross(Z,n0->n1)[0] place(Unzip,n1)[Z:0] cross(I,n0->n1)[0] place(Merger,n1)[T:0,I:0] place(Client,n1)[M:0] @ 0x1.cp+2",
     16, 1, 33);
    ("Tiny-C",
     "place(Splitter,n0)[M:1] place(Zip,n0)[T:1] cross(Z,n0->n1)[1] place(Unzip,n1)[Z:1] cross(I,n0->n1)[1] place(Merger,n1)[T:1,I:1] place(Client,n1)[M:1] @ 0x1.a399999999999p+5",
     15, 0, 96);
    ("Tiny-D",
     "place(Splitter,n0)[M:3] place(Zip,n0)[T:3] cross(Z,n0->n1)[3] place(Unzip,n1)[Z:3] cross(I,n0->n1)[3] place(Merger,n1)[T:3,I:3] place(Client,n1)[M:3] @ 0x1.a399999999999p+5",
     15, 0, 96);
    ("Tiny-E",
     "place(Splitter,n0)[M:3] place(Zip,n0)[T:3] cross(Z,n0->n1)[3] place(Unzip,n1)[Z:3] cross(I,n0->n1)[3] place(Merger,n1)[T:3,I:3] place(Client,n1)[M:3] @ 0x1.a399999999999p+5",
     37, 3, 69);
    ("Small-A",
     "Resource_exhausted",
     7, 1, 13);
    ("Small-B",
     "cross(M,n4->n3)[0] place(Splitter,n3)[M:0] place(Zip,n3)[T:0] cross(Z,n3->n2)[0] place(Unzip,n2)[Z:0] cross(I,n3->n2)[0] place(Merger,n2)[T:0,I:0] cross(M,n2->n1)[0] cross(M,n1->n0)[0] place(Client,n0)[M:0] @ 0x1.4p+3",
     118, 6, 317);
    ("Small-C",
     "place(Splitter,n4)[M:1] place(Zip,n4)[T:1] cross(Z,n4->n3)[1] cross(Z,n3->n2)[1] cross(Z,n2->n1)[1] cross(Z,n1->n0)[1] place(Unzip,n0)[Z:1] cross(I,n4->n3)[1] cross(I,n3->n2)[1] cross(I,n2->n1)[1] cross(I,n1->n0)[1] place(Merger,n0)[T:1,I:1] place(Client,n0)[M:1] @ 0x1.2ffffffffffffp+6",
     116, 0, 2906);
    ("Small-D",
     "place(Splitter,n4)[M:3] place(Zip,n4)[T:3] cross(Z,n4->n3)[3] cross(Z,n3->n2)[3] cross(Z,n2->n1)[3] cross(Z,n1->n0)[3] place(Unzip,n0)[Z:3] cross(I,n4->n3)[3] cross(I,n3->n2)[3] cross(I,n2->n1)[3] cross(I,n1->n0)[3] place(Merger,n0)[T:3,I:3] place(Client,n0)[M:3] @ 0x1.2ffffffffffffp+6",
     116, 0, 2906);
    ("Small-E",
     "place(Splitter,n4)[M:3] place(Zip,n4)[T:3] cross(Z,n4->n3)[3] cross(Z,n3->n2)[3] cross(Z,n2->n1)[3] cross(Z,n1->n0)[3] place(Unzip,n0)[Z:3] cross(I,n4->n3)[3] cross(I,n3->n2)[3] cross(I,n2->n1)[3] cross(I,n1->n0)[3] place(Merger,n0)[T:3,I:3] place(Client,n0)[M:3] @ 0x1.2ffffffffffffp+6",
     6727, 1247, 3193);
    ("Large-C",
     "place(Splitter,n4)[M:1] place(Zip,n4)[T:1] cross(Z,n4->n7)[1] cross(Z,n7->n0)[1] cross(Z,n0->n15)[1] cross(Z,n15->n14)[1] place(Unzip,n14)[Z:1] cross(I,n4->n7)[1] cross(I,n7->n0)[1] cross(I,n0->n15)[1] cross(I,n15->n14)[1] place(Merger,n14)[T:1,I:1] place(Client,n14)[M:1] @ 0x1.2ffffffffffffp+6",
     68, 0, 18995);
  ]

let trajectory_row name (report : Planner.report) =
  let outcome =
    match report.Planner.result with
    | Ok p ->
        Printf.sprintf "%s @ %h" (String.concat " " (Plan.labels p))
          p.Plan.cost_lb
    | Error (Planner.Invalid_spec _) -> "Invalid_spec"
    | Error (Planner.Unreachable_goal _) -> "Unreachable_goal"
    | Error Planner.Resource_exhausted -> "Resource_exhausted"
    | Error (Planner.Search_limit _) -> "Search_limit"
    | Error (Planner.Deadline_exceeded _) -> "Deadline_exceeded"
    | Error (Planner.Certification_failed _) -> "Certification_failed"
  in
  let s = report.Planner.stats in
  ( name,
    outcome,
    s.Planner.rg.expanded,
    s.Planner.rg.final_replay_rejected,
    s.Planner.slrg.nodes )

let test_search_trajectory () =
  let cells =
    List.concat_map
      (fun sc -> List.map (fun level -> (sc, level)) Media.all_scenarios)
      [ Scenarios.tiny (); Scenarios.small () ]
    @ [ (Scenarios.large (), Media.C) ]
  in
  let got =
    List.map
      (fun ((sc : Scenarios.t), level) ->
        trajectory_row
          (Printf.sprintf "%s-%s" sc.Scenarios.name (Media.scenario_name level))
          (fst (solve sc level)))
      cells
  in
  if got <> trajectories then
    Alcotest.failf "search trajectories changed:\n%s"
      (String.concat "\n"
         (List.map
            (fun (name, outcome, expanded, rejected, slrg) ->
              Printf.sprintf "    (%S,\n     %S,\n     %d, %d, %d);" name
                outcome expanded rejected slrg)
            got))

(* ---------------- batch executor ---------------- *)

let batch_requests () =
  List.concat_map
    (fun level ->
      List.map
        (fun (sc : Scenarios.t) ->
          let leveling = Media.leveling level sc.Scenarios.app in
          Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling)
        [ Scenarios.tiny (); Scenarios.small () ])
    [ Media.B; Media.C ]

let test_plan_batch_matches_sequential () =
  (* Parallel batch planning must be observationally identical to mapping
     [plan] sequentially: same plans, same costs, same search stats, in
     input order. *)
  let seq = List.map Planner.plan (batch_requests ()) in
  List.iter
    (fun jobs ->
      let par = Planner.plan_batch ~jobs (batch_requests ()) in
      Alcotest.(check int)
        "one report per request" (List.length seq) (List.length par);
      List.iter2
        (fun (a : Planner.report) (b : Planner.report) ->
          (match (a.Planner.result, b.Planner.result) with
          | Ok p1, Ok p2 ->
              Alcotest.(check (list string))
                "same plan" (Plan.labels p1) (Plan.labels p2);
              Alcotest.(check (float 1e-9))
                "same cost" p1.Plan.cost_lb p2.Plan.cost_lb
          | Error r1, Error r2 ->
              Alcotest.(check bool) "same failure" true (r1 = r2)
          | _ -> Alcotest.fail "sequential and batch outcomes diverge");
          Alcotest.(check int) "same rg_created"
            a.Planner.stats.Planner.rg.created
            b.Planner.stats.Planner.rg.created;
          Alcotest.(check int) "same rg_expanded"
            a.Planner.stats.Planner.rg.expanded
            b.Planner.stats.Planner.rg.expanded)
        seq par)
    [ 1; 2; 4 ]

let test_plan_batch_empty () =
  Alcotest.(check int) "empty batch" 0 (List.length (Planner.plan_batch []))

(* ---------------- postprocess ---------------- *)

let test_postprocess_minimizes () =
  let topo = G.line_kinds [ T.Lan ] in
  let app = Media.app ~server:0 ~client:1 () in
  let o = Planner.plan (Planner.request topo app) in
  let pb = Compile.compile topo app Leveling.empty in
  let p = expect_plan "greedy rich" o in
  match Postprocess.minimize pb p with
  | Some r ->
      (* demand 90 out of 200 supply: minimal scale near 0.45 *)
      Alcotest.(check bool) "scale below 0.5" true (r.Postprocess.scale < 0.5);
      Alcotest.(check bool) "scale above 0.4" true (r.Postprocess.scale > 0.4)
  | None -> Alcotest.fail "postprocess found nothing"

let test_postprocess_rejects_invalid () =
  (* A plan that does not replay yields None. *)
  let o, pb = solve (Scenarios.tiny ()) Media.C in
  let p = expect_plan "tiny" o in
  let broken = { p with Plan.steps = List.tl p.Plan.steps } in
  Alcotest.(check bool) "None on broken plan" true
    (Postprocess.minimize pb broken = None)

(* ---------------- order repair witness ---------------- *)

(* Two goal components read one stream at one node at different levels:
   [High] needs V >= 50 and [Low] V <= 40 of the degradable stream the
   camera supplies at 60.  From init only [High] before [Low] runs: [Low]
   throttles the stream after [High] has read it.  Regression replay
   meets a site's consumers in reverse plan order, so it rejects that
   order; the candidate that survives to from-init validation is [Low]
   before [High], which fails there, and only order repair turns it into
   the plan.  With repair disabled the planner answers "no
   resource-feasible plan found". *)
let witness_spec =
  {|interface V {
  property ibw degradable;
  cross ibw := min(ibw, link.lbw);
  consume link.lbw -= min(ibw, link.lbw);
  cost 1 + ibw / 10;
  levels ibw: 40, 50;
}

component Camera {
  provides V;
  effect V.ibw := 60;
  anchored;
}

component Low {
  requires V;
  condition V.ibw <= 40;
  cost 1 + V.ibw / 10;
}

component High {
  requires V;
  condition V.ibw >= 50;
  cost 1 + V.ibw / 10;
}

network {
  node cam cpu 30;
  node tv cpu 30;
  link cam -- tv lan lbw 100;
}

deploy {
  place Camera on cam;
  goal Low on tv;
  goal High on tv;
}
|}

let test_order_repair_witness () =
  let doc = Sekitei_spec.Dsl.parse_document witness_spec in
  let topo = Option.get doc.Sekitei_spec.Dsl.topo in
  let app = doc.Sekitei_spec.Dsl.app
  and leveling = doc.Sekitei_spec.Dsl.leveling in
  let report = Planner.plan (Planner.request topo app ~leveling) in
  let p = expect_plan "witness" report in
  let pb = Compile.compile topo app leveling in
  let cross, high, low =
    match p.Plan.steps with
    | [ cross; high; low ] -> (cross, high, low)
    | steps -> Alcotest.failf "expected 3 steps, got %d" (List.length steps)
  in
  Alcotest.(check (list string)) "plan"
    [ "cross(V,cam->tv)"; "place(High,tv)"; "place(Low,tv)" ]
    (List.map
       (fun (a : Sekitei_core.Action.t) ->
         String.sub a.label 0 (String.index a.label '['))
       p.Plan.steps);
  Alcotest.(check (float 1e-9)) "cost bound" 13. p.Plan.cost_lb;
  Alcotest.(check int) "repaired" 1
    report.Planner.stats.Planner.rg.order_repaired;
  let from_init tail =
    Result.is_ok (Replay.run pb ~mode:Replay.From_init tail)
  in
  (* The search extends a tail's regression state last action first. *)
  let regresses tail =
    List.fold_left
      (fun rs a ->
        Result.bind rs (fun rs -> Replay.extend pb ~mode:Replay.Regression rs a))
      (Ok (Replay.initial pb)) (List.rev tail)
    |> Result.is_ok
  in
  Alcotest.(check bool) "the plan runs from init" true
    (from_init [ cross; high; low ]);
  Alcotest.(check bool) "regression rejects its tail" false
    (regresses [ high; low ]);
  Alcotest.(check bool) "regression accepts the other order" true
    (regresses [ cross; low; high ]);
  Alcotest.(check bool) "the other order fails from init" false
    (from_init [ cross; low; high ])

let suite =
  [
    ("tiny: greedy fails (scenario 1)", `Quick, test_tiny_greedy_fails);
    ("tiny: B finds 7-action plan", `Quick, test_tiny_b_plan);
    ("tiny: C/D/E optimal bound", `Quick, test_tiny_cde_optimal);
    ("tiny: plan contents", `Quick, test_tiny_plan_contents);
    ("tiny: delivers demand", `Quick, test_tiny_delivers_demand);
    ("small: B shortest 10 actions", `Quick, test_small_b_shortest);
    ("small: C optimal 13 actions", `Quick, test_small_c_optimal);
    ("small: optimal cheaper", `Quick, test_small_optimal_cheaper_than_shortest);
    ("small: greedy fails", `Quick, test_small_greedy_fails);
    ("small: D/E match C", `Quick, test_small_d_e_match_c);
    ("plans replay from init", `Quick, test_plans_replay_from_init);
    ("cost bound below realized", `Quick, test_cost_lb_below_realized);
    ("optimality vs exhaustive (micro)", `Slow, test_optimality_exhaustive_micro);
    ("unreachable goal", `Quick, test_unreachable_goal);
    ("invalid spec reported", `Quick, test_invalid_spec_reported);
    ("search budget", `Quick, test_search_budget);
    ("insufficient cpu everywhere", `Quick, test_insufficient_cpu_everywhere);
    ("direct plan when wide enough", `Quick, test_direct_when_wide_enough);
    ("stats populated", `Quick, test_stats_populated);
    ("search trajectory", `Quick, test_search_trajectory);
    ("plan_batch matches sequential", `Quick, test_plan_batch_matches_sequential);
    ("plan_batch empty", `Quick, test_plan_batch_empty);
    ("postprocess minimizes", `Quick, test_postprocess_minimizes);
    ("postprocess rejects invalid", `Quick, test_postprocess_rejects_invalid);
    ("order repair witness", `Quick, test_order_repair_witness);
  ]

(* Advanced planner scenarios: multiple goals, multiple sources,
   upgradable properties, plan module details, deterministic output. *)

module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Replay = Sekitei_core.Replay
module Compile = Sekitei_core.Compile
module Problem = Sekitei_core.Problem
module Media = Sekitei_domains.Media
module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module E = Sekitei_expr.Expr
module G = Sekitei_network.Generators
module T = Sekitei_network.Topology

let expect_plan what (report : Planner.report) =
  match report.Planner.result with
  | Ok p -> p
  | Error r -> Alcotest.failf "%s: no plan (%a)" what Planner.pp_failure r

(* ---------------- multiple goals ---------------- *)

let two_client_app ~server ~client1 ~client2 =
  let base = Media.app ~server ~client:client1 () in
  (* Second client component with the same requirements. *)
  let client2_comp =
    Model.component ~requires:[ "M" ]
      ~conditions:[ E.parse_cond "M.ibw >= 90" ]
      ~place_cost:(E.parse "1 + M.ibw / 10")
      "Client2"
  in
  {
    base with
    Model.components = base.Model.components @ [ client2_comp ];
    goals = [ Model.Placed ("Client", client1); Model.Placed ("Client2", client2) ];
  }

let test_two_clients_star () =
  (* Server at the hub, two clients on separate 150-unit spokes: both
     direct deliveries fit. *)
  let topo = G.star 2 in
  let app = two_client_app ~server:0 ~client1:1 ~client2:2 in
  let leveling = Media.leveling Media.C app in
  let p = expect_plan "two clients" (Planner.plan (Planner.request topo app ~leveling)) in
  let pb = Compile.compile topo app leveling in
  let placements = Plan.placements pb p in
  Alcotest.(check (option int)) "client1 at 1" (Some 1)
    (List.assoc_opt "Client" placements);
  Alcotest.(check (option int)) "client2 at 2" (Some 2)
    (List.assoc_opt "Client2" placements);
  (* 2 crossings + 2 placements *)
  Alcotest.(check int) "4 actions" 4 (Plan.length p)

let test_two_clients_shared_bottleneck () =
  (* Both clients behind the same first hop: the stream is multicast -
     one crossing of the shared link serves both subtrees, and each spoke
     then carries its own copy.  Both demands must be met by the replay. *)
  let topo =
    T.make
      ~nodes:(List.init 4 (fun i -> T.node ~cpu:60. i (Printf.sprintf "n%d" i)))
      ~links:
        [ T.link ~bw:150. T.Lan 0 0 1; T.link ~bw:150. T.Lan 1 1 2;
          T.link ~bw:150. T.Lan 2 1 3 ]
  in
  let app = two_client_app ~server:0 ~client1:2 ~client2:3 in
  let leveling = Media.leveling Media.C app in
  let p = expect_plan "shared bottleneck" (Planner.plan (Planner.request topo app ~leveling)) in
  (* Whatever shape it found must replay and deliver both demands. *)
  let pb = Compile.compile topo app leveling in
  match Replay.run pb ~mode:Replay.From_init p.Plan.steps with
  | Ok m ->
      let m_i = Problem.iface_index pb "M" in
      List.iter
        (fun node ->
          let v =
            List.find_map
              (fun (i, n, x) -> if i = m_i && n = node then Some x else None)
              m.Replay.delivered
          in
          Alcotest.(check bool)
            (Printf.sprintf "client node %d served" node)
            true
            (match v with Some x -> x >= 90. | None -> false))
        [ 2; 3 ]
  | Error f -> Alcotest.failf "invalid plan: %s" (Lazy.force f.Replay.reason)

(* ---------------- multiple sources ---------------- *)

let test_two_servers_nearest_wins () =
  (* Two servers at opposite ends of a line; the client sits next to one
     of them: the optimal plan uses the near server (1 crossing). *)
  let topo = G.line 5 in
  let app = Media.app ~server:0 ~client:3 () in
  let app =
    { app with Model.pre_placed = [ ("Server", 0); ("Server", 4) ] }
  in
  let leveling = Media.leveling Media.C app in
  let p = expect_plan "two servers" (Planner.plan (Planner.request topo app ~leveling)) in
  let pb = Compile.compile topo app leveling in
  Alcotest.(check int) "one crossing + client" 2 (Plan.length p);
  match Plan.crossings pb p with
  | [ ("M", 4, 3) ] -> ()
  | other ->
      Alcotest.failf "expected cross from n4, got %s"
        (String.concat ";"
           (List.map (fun (i, a, b) -> Printf.sprintf "%s %d->%d" i a b) other))

(* ---------------- upgradable properties ---------------- *)

let test_upgradable_property () =
  (* A "quality floor" stream: availability at a low value implies
     availability at higher values (e.g. a guaranteed minimum).  The
     consumer demands the value NOT exceed a budget - satisfiable only
     because upgradable availability includes the whole upper range and
     the meet keeps the current lower bound. *)
  let iface =
    Model.iface
      ~cross_transforms:[ ("qual", E.parse "qual") ]
      ~cross_consumes:[]
      ~cross_cost:(E.Const 1.)
      ~properties:[ Model.property ~tag:Model.Upgradable "qual" ]
      "Q"
  in
  let app =
    {
      Model.interfaces = [ iface ];
      components =
        [
          Model.component ~provides:[ "Q" ]
            ~effects:[ ("Q", "qual", E.Const 3.) ]
            ~placeable:false "Src";
          Model.component ~requires:[ "Q" ]
            ~conditions:[ E.parse_cond "Q.qual >= 5" ]
            ~place_cost:(E.Const 1.) "Snk";
        ];
      pre_placed = [ ("Src", 0) ];
      goals = [ Model.Placed ("Snk", 1) ];
    }
  in
  let topo = G.line 2 in
  let leveling = Leveling.with_iface Leveling.empty "Q" "qual" [ 5. ] in
  let p = expect_plan "upgradable" (Planner.plan (Planner.request topo app ~leveling)) in
  Alcotest.(check int) "cross + place" 2 (Plan.length p)

let test_neither_tag_exact () =
  (* A Neither-tagged property is not throttleable: a supply of exactly 50
     can only satisfy levels containing 50. *)
  let iface =
    Model.iface
      ~cross_transforms:[ ("v", E.parse "v") ]
      ~cross_consumes:[]
      ~cross_cost:(E.Const 1.)
      ~properties:[ Model.property ~tag:Model.Neither "v" ]
      "X"
  in
  let app cond =
    {
      Model.interfaces = [ iface ];
      components =
        [
          Model.component ~provides:[ "X" ]
            ~effects:[ ("X", "v", E.Const 50.) ]
            ~placeable:false "Src";
          Model.component ~requires:[ "X" ]
            ~conditions:[ E.parse_cond cond ]
            ~place_cost:(E.Const 1.) "Snk";
        ];
      pre_placed = [ ("Src", 0) ];
      goals = [ Model.Placed ("Snk", 1) ];
    }
  in
  let topo = G.line 2 in
  let leveling = Leveling.with_iface Leveling.empty "X" "v" [ 40.; 60. ] in
  (match (Planner.plan (Planner.request topo (app "X.v >= 45") ~leveling)).Planner.result with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "50 satisfies >=45: %a" Planner.pp_failure r);
  match (Planner.plan (Planner.request topo (app "X.v >= 60") ~leveling)).Planner.result with
  | Ok _ -> Alcotest.fail "a fixed 50 cannot satisfy >= 60"
  | Error _ -> ()

(* ---------------- determinism ---------------- *)

let test_planner_deterministic () =
  let run () =
    let sc = Sekitei_harness.Scenarios.small () in
    let leveling = Media.leveling Media.C sc.Sekitei_harness.Scenarios.app in
    let o =
      Planner.plan
        (Planner.request sc.Sekitei_harness.Scenarios.topo
           sc.Sekitei_harness.Scenarios.app ~leveling)
    in
    match o.Planner.result with
    | Ok p -> (Plan.labels p, p.Plan.cost_lb, o.Planner.stats.Planner.rg.created)
    | Error _ -> Alcotest.fail "no plan"
  in
  let l1, c1, n1 = run () in
  let l2, c2, n2 = run () in
  Alcotest.(check (list string)) "same plan" l1 l2;
  Alcotest.(check (float 0.)) "same bound" c1 c2;
  Alcotest.(check int) "same search size" n1 n2

(* ---------------- plan module ---------------- *)

let test_plan_rendering () =
  let sc = Sekitei_harness.Scenarios.tiny () in
  let leveling = Media.leveling Media.C sc.Sekitei_harness.Scenarios.app in
  let pb =
    Compile.compile sc.Sekitei_harness.Scenarios.topo
      sc.Sekitei_harness.Scenarios.app leveling
  in
  let p =
    expect_plan "tiny"
      (Planner.plan
         (Planner.request sc.Sekitei_harness.Scenarios.topo
            sc.Sekitei_harness.Scenarios.app ~leveling))
  in
  let text = Plan.to_string pb p in
  Alcotest.(check bool) "paper phrasing" true
    (Sekitei_spec.Str_split.split_once text "cross with Z stream from n0 to n1"
    <> None);
  Alcotest.(check bool) "terminated" true (String.length text > 0 && text.[String.length text - 1] = '.');
  Alcotest.(check int) "labels arity" (Plan.length p) (List.length (Plan.labels p));
  Alcotest.(check int) "placements + crossings = length" (Plan.length p)
    (List.length (Plan.placements pb p) + List.length (Plan.crossings pb p))

let suite =
  [
    ("two clients on a star", `Quick, test_two_clients_star);
    ("two clients, shared bottleneck", `Quick, test_two_clients_shared_bottleneck);
    ("two servers: nearest wins", `Quick, test_two_servers_nearest_wins);
    ("upgradable property", `Quick, test_upgradable_property);
    ("neither tag is exact", `Quick, test_neither_tag_exact);
    ("planner deterministic", `Quick, test_planner_deterministic);
    ("plan rendering", `Quick, test_plan_rendering);
  ]

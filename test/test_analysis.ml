(* Static preflight analyzer and independent plan certifier. *)

module I = Sekitei_util.Interval
module D = Sekitei_util.Diagnostic
module T = Sekitei_network.Topology
module Media = Sekitei_domains.Media
module Scenarios = Sekitei_harness.Scenarios
module Dsl = Sekitei_spec.Dsl
module Validate = Sekitei_spec.Validate
module Compile = Sekitei_core.Compile
module Problem = Sekitei_core.Problem
module Action = Sekitei_core.Action
module Plan = Sekitei_core.Plan
module Planner = Sekitei_core.Planner
module Preflight = Sekitei_analysis.Preflight
module Certify = Sekitei_analysis.Certify

let tiny level =
  let sc = Scenarios.tiny () in
  let leveling = Media.leveling level sc.Scenarios.app in
  (sc, Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling, leveling)

let codes diags = List.map (fun (d : D.t) -> d.D.code) diags

let has_code code diags = List.mem code (codes diags)

(* The capacity-starved diamond of examples/specs/infeasible.spec: the
   encoder demands 100 CPU on 40-CPU nodes, so the encoded stream is
   unproducible and the goal provably unreachable. *)
let diamond_spec =
  {|
interface V {
  property ibw degradable;
  cross ibw := min(ibw, link.lbw);
  consume link.lbw -= min(ibw, link.lbw);
  cost 1 + ibw / 10;
  levels ibw: 40, 50;
}
interface E {
  property ibw degradable;
  cross ibw := min(ibw, link.lbw);
  consume link.lbw -= min(ibw, link.lbw);
  cost 1 + ibw / 10;
  levels ibw: 8, 10;
}
component Camera { provides V; effect V.ibw := 50; anchored; }
component Encode {
  requires V;
  provides E;
  effect E.ibw := V.ibw / 5;
  consume node.cpu -= 100;
  cost 1 + V.ibw / 10;
}
component Viewer { requires E; condition E.ibw >= 8; cost 1; }
network {
  node src cpu 40;
  node left cpu 40;
  node right cpu 40;
  node dst cpu 40;
  link src -- left lan lbw 100;
  link src -- right lan lbw 100;
  link left -- dst wan lbw 10;
  link right -- dst wan lbw 10;
}
deploy { place Camera on src; goal Viewer on dst; }
|}

let compile_spec spec =
  let doc = Dsl.parse_document spec in
  let topo = Option.get doc.Dsl.topo in
  (topo, doc.Dsl.app, Compile.compile topo doc.Dsl.app doc.Dsl.leveling)

(* ---------------- preflight ---------------- *)

let test_preflight_clean () =
  let _, pb, _ = tiny Media.C in
  Alcotest.(check (list string)) "no diagnostics" [] (codes (Preflight.check pb))

let test_preflight_infeasible () =
  let _, _, pb = compile_spec diamond_spec in
  let diags = Preflight.check pb in
  Alcotest.(check bool) "goal placement infeasible" true
    (has_code "SKT106" diags);
  Alcotest.(check bool) "PLRG-unreachable goal" true (has_code "SKT105" diags);
  Alcotest.(check bool) "encoder unplaceable warning" true
    (has_code "SKT102" diags);
  Alcotest.(check int) "exit code errors" 2 (D.exit_code diags);
  Alcotest.(check bool) "actions were pruned" true (pb.Problem.pruned_actions > 0)

let test_preflight_level_grid () =
  let _, pb, _ = tiny Media.C in
  (* Doctor one interface's grid: a gap between [0,10) and [20,inf), a
     shape the DSL's cutpoint constructor cannot produce. *)
  let levels = Array.copy pb.Problem.iface_levels in
  levels.(0) <- [| I.make 0. 10.; I.make 20. Float.infinity |];
  let pb' = { pb with Problem.iface_levels = levels } in
  Alcotest.(check bool) "grid gap warned" true
    (has_code "SKT103" (Preflight.check pb'));
  (* Overlapping grids are also flagged. *)
  levels.(0) <- [| I.make 0. 30.; I.make 20. Float.infinity |];
  let pb' = { pb with Problem.iface_levels = levels } in
  let diags = Preflight.check pb' in
  Alcotest.(check bool) "grid overlap warned" true (has_code "SKT103" diags);
  Alcotest.(check int) "warnings exit 1" 1 (D.exit_code diags)

let test_preflight_topology_cut () =
  (* Three nodes, but only nodes 0-1 are connected: the client on node 2
     sits across a cut from every producer of M. *)
  let topo =
    T.make
      ~nodes:(List.init 3 (fun i -> T.node ~cpu:30. i (Printf.sprintf "n%d" i)))
      ~links:[ T.link ~bw:100. T.Lan 0 0 1 ]
  in
  let app = Media.app ~server:0 ~client:2 () in
  let leveling = Media.leveling Media.C app in
  let pb = Compile.compile topo app leveling in
  let diags = Preflight.check pb in
  Alcotest.(check bool) "topology cut reported" true (has_code "SKT104" diags);
  Alcotest.(check int) "cut is an error" 2 (D.exit_code diags)

let test_preflight_no_producer () =
  (* An interface nothing provides is suspicious but not fatal. *)
  let spec =
    {|
interface V {
  property ibw degradable;
  cross ibw := min(ibw, link.lbw);
  consume link.lbw -= min(ibw, link.lbw);
  cost 1;
  levels ibw: 50;
}
interface Ghost {
  property ibw degradable;
  cross ibw := ibw;
  cost 1;
  levels ibw: 10;
}
component Camera { provides V; effect V.ibw := 50; anchored; }
component Viewer { requires V; cost 1; }
network {
  node a cpu 30;
  node b cpu 30;
  link a -- b lan lbw 100;
}
deploy { place Camera on a; goal Viewer on b; }
|}
  in
  let _, _, pb = compile_spec spec in
  let diags = Preflight.check pb in
  Alcotest.(check bool) "unproduced interface warned" true
    (has_code "SKT101" diags);
  Alcotest.(check int) "warning only" 1 (D.exit_code diags)

(* ---------------- validator diagnostics ---------------- *)

let test_validate_codes () =
  let doc =
    Dsl.parse_document
      {|
interface V {
  property ibw degradable;
  cross ibw := min(ibw, link.lbw);
  cost 1;
  levels ibw: 50;
}
component Camera { provides V; effect V.ibw := 50; anchored; }
component Viewer { requires Nothing; cost 1; }
network {
  node a cpu 30;
  node b cpu 30;
  link a -- b lan lbw 100;
}
deploy { place Camera on a; goal Viewer on b; }
|}
  in
  let topo = Option.get doc.Dsl.topo in
  let diags = Validate.check_diagnostics topo doc.Dsl.app in
  Alcotest.(check bool) "dangling requires has SKT004" true
    (has_code "SKT004" diags);
  Alcotest.(check bool) "all validation findings are errors" true
    (List.for_all (fun (d : D.t) -> d.D.severity = D.Error) diags)

(* ---------------- diagnostic type ---------------- *)

let test_diagnostic_rendering () =
  let w = D.warning ~code:"SKT103" ~loc:"interface M" "grid gap" in
  let e =
    D.error ~code:"SKT104" ~loc:"goal g" ~evidence:[ ("iface", "M") ]
      "cut found"
  in
  Alcotest.(check int) "empty exits 0" 0 (D.exit_code []);
  Alcotest.(check int) "warning exits 1" 1 (D.exit_code [ w ]);
  Alcotest.(check int) "error dominates" 2 (D.exit_code [ w; e ]);
  Alcotest.(check (list string)) "errors sort first" [ "SKT104"; "SKT103" ]
    (codes (D.by_severity [ w; e ]));
  Alcotest.(check string) "text rendering" "error[SKT104] goal g: cut found (iface=M)"
    (D.to_string e);
  let json = Sekitei_util.Json.to_string (D.to_json e) in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json carries the code" true (contains "SKT104" json)

(* ---------------- certifier ---------------- *)

let plan_tiny () =
  let sc, pb, leveling = tiny Media.C in
  match
    (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling))
      .Planner.result
  with
  | Ok p -> (pb, p)
  | Error _ -> Alcotest.fail "tiny scenario C should solve"

let test_certify_accepts () =
  let pb, p = plan_tiny () in
  Alcotest.(check (list string)) "emitted plan certifies" []
    (codes (Certify.check pb p));
  Alcotest.(check bool) "ok agrees" true (Certify.ok pb p)

let test_certify_rejects_cost () =
  let pb, p = plan_tiny () in
  let steps =
    match p.Plan.steps with
    | a :: rest -> { a with Action.cost_lb = a.Action.cost_lb +. 1. } :: rest
    | [] -> Alcotest.fail "plan has steps"
  in
  let mutated = { p with Plan.steps = steps } in
  Alcotest.(check (list string)) "cost tamper detected" [ "SKT207" ]
    (codes (Certify.check pb mutated))

let test_certify_rejects_order () =
  let pb, p = plan_tiny () in
  if List.length p.Plan.steps < 2 then Alcotest.fail "plan too short"
  else
    let mutated = { p with Plan.steps = List.rev p.Plan.steps } in
    Alcotest.(check (list string)) "broken ordering detected" [ "SKT201" ]
      (codes (Certify.check pb mutated))

let test_certify_rejects_level () =
  let pb, p = plan_tiny () in
  let shifted = ref false in
  let steps =
    List.map
      (fun (a : Action.t) ->
        if (not !shifted) && Array.length a.Action.in_levels > 0 then begin
          shifted := true;
          {
            a with
            Action.in_levels =
              Array.map
                (fun (i, ivl) ->
                  (i, I.make (I.lo ivl +. 1000.) (I.hi ivl +. 1000.)))
                a.Action.in_levels;
          }
        end
        else a)
      p.Plan.steps
  in
  if not !shifted then Alcotest.fail "no step consumes a stream"
  else
    let mutated = { p with Plan.steps = steps } in
    Alcotest.(check (list string)) "impossible level detected" [ "SKT202" ]
      (codes (Certify.check pb mutated))

let test_certify_rejects_total_cost () =
  let pb, p = plan_tiny () in
  let mutated = { p with Plan.cost_lb = p.Plan.cost_lb +. 0.5 } in
  Alcotest.(check (list string)) "total bound tamper detected" [ "SKT207" ]
    (codes (Certify.check pb mutated))

let test_certifier_hook () =
  (* With the hook installed, config.certify re-validates every emitted
     plan inside the session; clean plans pass through unchanged. *)
  Certify.install ();
  let sc, _, leveling = tiny Media.C in
  let config = { Planner.default_config with Planner.certify = true } in
  match
    (Planner.plan
       (Planner.request ~config sc.Scenarios.topo sc.Scenarios.app ~leveling))
      .Planner.result
  with
  | Ok _ -> ()
  | Error r ->
      Alcotest.failf "certified run failed: %a" Planner.pp_failure r

let suite =
  [
    Alcotest.test_case "preflight: clean scenario" `Quick test_preflight_clean;
    Alcotest.test_case "preflight: capacity-starved diamond" `Quick
      test_preflight_infeasible;
    Alcotest.test_case "preflight: level-grid anomalies" `Quick
      test_preflight_level_grid;
    Alcotest.test_case "preflight: topology cut" `Quick
      test_preflight_topology_cut;
    Alcotest.test_case "preflight: unproduced interface" `Quick
      test_preflight_no_producer;
    Alcotest.test_case "validate: structured diagnostics" `Quick
      test_validate_codes;
    Alcotest.test_case "diagnostic: rendering and exit codes" `Quick
      test_diagnostic_rendering;
    Alcotest.test_case "certify: accepts emitted plan" `Quick
      test_certify_accepts;
    Alcotest.test_case "certify: rejects cost tamper" `Quick
      test_certify_rejects_cost;
    Alcotest.test_case "certify: rejects reordering" `Quick
      test_certify_rejects_order;
    Alcotest.test_case "certify: rejects impossible level" `Quick
      test_certify_rejects_level;
    Alcotest.test_case "certify: rejects total bound tamper" `Quick
      test_certify_rejects_total_cost;
    Alcotest.test_case "certify: session hook round-trip" `Quick
      test_certifier_hook;
  ]

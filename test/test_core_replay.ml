(* Unit tests for Sekitei_core.Replay: regression vs from-init execution,
   throttling, consumption accounting, metrics. *)

module Compile = Sekitei_core.Compile
module Problem = Sekitei_core.Problem
module Action = Sekitei_core.Action
module Replay = Sekitei_core.Replay
module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Media = Sekitei_domains.Media
module G = Sekitei_network.Generators
module T = Sekitei_network.Topology

let tiny level =
  let app = Media.app ~server:0 ~client:1 () in
  let leveling = Media.leveling level app in
  Compile.compile (G.line_kinds [ T.Wan ]) app leveling

(* Find a unique action by predicate. *)
let find_action pb pred =
  match Array.to_list pb.Problem.actions |> List.filter pred with
  | [ a ] -> a
  | [] -> Alcotest.fail "no matching action"
  | many ->
      Alcotest.failf "ambiguous action (%d matches)" (List.length many)

let place_action pb comp_name ~node ~in_level =
  let comp = Problem.comp_index pb comp_name in
  find_action pb (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Place { comp = c; node = n } ->
          c = comp && n = node
          && (a.Action.in_levels = [||]
             || Array.exists
                  (fun (_, ivl) -> Sekitei_util.Interval.lo ivl = in_level)
                  a.Action.in_levels)
      | _ -> false)

let cross_action pb iface_name ~src ~in_lo =
  let iface = Problem.iface_index pb iface_name in
  find_action pb (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Cross { iface = i; src = s; _ } ->
          i = iface && s = src
          && Array.for_all
               (fun (_, ivl) -> Sekitei_util.Interval.lo ivl = in_lo)
               a.Action.in_levels
      | _ -> false)

(* The canonical 7-action tiny plan at level [90,100). *)
let tiny_plan pb =
  [
    place_action pb "Splitter" ~node:0 ~in_level:90.;
    place_action pb "Zip" ~node:0 ~in_level:63.;
    cross_action pb "Z" ~src:0 ~in_lo:31.5;
    cross_action pb "I" ~src:0 ~in_lo:27.;
    place_action pb "Unzip" ~node:1 ~in_level:31.5;
    place_action pb "Merger" ~node:1 ~in_level:63.;
    place_action pb "Client" ~node:1 ~in_level:90.;
  ]

let test_full_replay_succeeds () =
  let pb = tiny Media.C in
  match Replay.run pb ~mode:Replay.From_init (tiny_plan pb) with
  | Ok m ->
      Alcotest.(check (float 1e-6)) "wan peak Z+I" 65. m.Replay.wan_peak;
      Alcotest.(check (float 1e-6)) "lan peak none" 0. m.Replay.lan_peak;
      (* Splitter (20) + Zip (7) on node 0 *)
      Alcotest.(check (float 1e-6)) "cpu at server" 27.
        (List.assoc 0 m.Replay.node_cpu_used);
      Alcotest.(check (float 1e-6)) "cpu at client" 27.
        (List.assoc 1 m.Replay.node_cpu_used);
      (* delivered M at the client operates at the 100 cutpoint *)
      let m_i = Problem.iface_index pb "M" in
      let delivered =
        List.find_map
          (fun (i, n, v) -> if i = m_i && n = 1 then Some v else None)
          m.Replay.delivered
      in
      Alcotest.(check (option (float 1e-6))) "delivers 100" (Some 100.) delivered
  | Error f -> Alcotest.failf "replay failed: %s" (Lazy.force f.Replay.reason)

let test_replay_order_dependent () =
  (* Consuming Z at node 1 before it has been produced fails from-init but
     is allowed in regression mode, which seeds unknown inputs
     optimistically. *)
  let pb = tiny Media.C in
  let tail = [ place_action pb "Unzip" ~node:1 ~in_level:31.5 ] in
  (match Replay.run pb ~mode:Replay.From_init tail with
  | Ok _ -> Alcotest.fail "should fail: Z not yet available"
  | Error f ->
      Alcotest.(check bool) "mentions Z" true
        (Sekitei_spec.Str_split.split_once (Lazy.force f.Replay.reason) "Z" <> None));
  match Replay.run pb ~mode:Replay.Regression tail with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "regression should pass: %s" (Lazy.force f.Replay.reason)

let test_greedy_cpu_failure () =
  (* Scenario A: placing the splitter at the full 200 units blows the
     CPU budget even in regression mode (the greedy failure mode). *)
  let pb = tiny Media.A in
  let splitter = place_action pb "Splitter" ~node:0 ~in_level:0. in
  match Replay.run pb ~mode:Replay.Regression [ splitter ] with
  | Ok _ -> Alcotest.fail "should exceed CPU at max utilization"
  | Error f ->
      Alcotest.(check bool) "cpu mentioned" true
        (Sekitei_spec.Str_split.split_once (Lazy.force f.Replay.reason) "cpu" <> None)

let test_leveled_cpu_ok () =
  (* The same placement throttled into [90,100) fits. *)
  let pb = tiny Media.C in
  let splitter = place_action pb "Splitter" ~node:0 ~in_level:90. in
  match Replay.run pb ~mode:Replay.Regression [ splitter ] with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "unexpected failure: %s" (Lazy.force f.Replay.reason)

let test_link_capacity_accumulates () =
  (* Z consumes 35 then I consumes 30 of the 70-unit link; a second Z
     crossing has no room left. *)
  let pb = tiny Media.C in
  let z = cross_action pb "Z" ~src:0 ~in_lo:31.5 in
  let i = cross_action pb "I" ~src:0 ~in_lo:27. in
  let pre =
    [
      place_action pb "Splitter" ~node:0 ~in_level:90.;
      place_action pb "Zip" ~node:0 ~in_level:63.;
    ]
  in
  (match Replay.run pb ~mode:Replay.From_init (pre @ [ z; i ]) with
  | Ok m ->
      Alcotest.(check (float 1e-6)) "link fully used minus 5" 65. m.Replay.wan_peak
  | Error f -> Alcotest.failf "unexpected: %s" (Lazy.force f.Replay.reason));
  (* crossing the T stream (63 units at operating point 70) after Z and I
     no longer fits: min(.,5) degrades below its level *)
  let t = cross_action pb "T" ~src:0 ~in_lo:63. in
  match Replay.run pb ~mode:Replay.From_init (pre @ [ z; i; t ]) with
  | Ok _ -> Alcotest.fail "T should not fit next to Z and I"
  | Error _ -> ()

let test_source_scale () =
  let pb = tiny Media.C in
  let plan = tiny_plan pb in
  (* Scaling supply to 60% (120 units) still admits the [90,100) level;
     scaling to 40% (80) breaks it. *)
  (match Replay.run ~source_scale:0.6 pb ~mode:Replay.From_init plan with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "60%% should work: %s" (Lazy.force f.Replay.reason));
  match Replay.run ~source_scale:0.4 pb ~mode:Replay.From_init plan with
  | Ok _ -> Alcotest.fail "40% supply cannot reach the [90,100) level"
  | Error _ -> ()

let test_metrics_cost_positive () =
  let pb = tiny Media.C in
  match Replay.run pb ~mode:Replay.From_init (tiny_plan pb) with
  | Ok m -> Alcotest.(check bool) "realized cost positive" true (m.Replay.realized_cost > 0.)
  | Error f -> Alcotest.failf "unexpected: %s" (Lazy.force f.Replay.reason)

let test_empty_tail () =
  let pb = tiny Media.C in
  match Replay.run pb ~mode:Replay.From_init [] with
  | Ok m ->
      Alcotest.(check (float 0.)) "no cost" 0. m.Replay.realized_cost;
      Alcotest.(check (float 0.)) "no lan use" 0. m.Replay.lan_peak
  | Error _ -> Alcotest.fail "empty tail must succeed"

let test_failure_reports_action () =
  let pb = tiny Media.A in
  let splitter = place_action pb "Splitter" ~node:0 ~in_level:0. in
  match Replay.run pb ~mode:Replay.From_init [ splitter ] with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      Alcotest.(check int) "index" 0 f.Replay.failed_index;
      Alcotest.(check bool) "label mentions Splitter" true
        (Sekitei_spec.Str_split.split_once f.Replay.failed_action "Splitter" <> None)

let suite =
  [
    ("full replay succeeds", `Quick, test_full_replay_succeeds);
    ("replay order dependent", `Quick, test_replay_order_dependent);
    ("greedy cpu failure", `Quick, test_greedy_cpu_failure);
    ("leveled cpu ok", `Quick, test_leveled_cpu_ok);
    ("link capacity accumulates", `Quick, test_link_capacity_accumulates);
    ("source scale", `Quick, test_source_scale);
    ("metrics cost positive", `Quick, test_metrics_cost_positive);
    ("empty tail", `Quick, test_empty_tail);
    ("failure reports action", `Quick, test_failure_reports_action);
  ]

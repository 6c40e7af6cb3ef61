(* Tests for the evaluation harness: scenario construction, Table 1/2
   generation, figure text. *)

module Scenarios = Sekitei_harness.Scenarios
module Table2 = Sekitei_harness.Table2
module Figures = Sekitei_harness.Figures
module Media = Sekitei_domains.Media
module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Replay = Sekitei_core.Replay
module T = Sekitei_network.Topology
module R = Sekitei_network.Routing

let contains hay needle =
  Sekitei_spec.Str_split.split_once hay needle <> None

(* ---------------- scenarios ---------------- *)

let test_tiny_shape () =
  let sc = Scenarios.tiny () in
  Alcotest.(check int) "2 nodes" 2 (T.node_count sc.Scenarios.topo);
  Alcotest.(check (float 0.)) "70-unit link" 70.
    (T.link_resource sc.Scenarios.topo 0 "lbw")

let test_small_shape () =
  let sc = Scenarios.small () in
  Alcotest.(check int) "6 nodes" 6 (T.node_count sc.Scenarios.topo);
  Alcotest.(check (option int)) "4-link path" (Some 4)
    (R.hop_distance sc.Scenarios.topo sc.Scenarios.server sc.Scenarios.client);
  (* exactly one WAN link on the path *)
  match R.shortest_path sc.Scenarios.topo sc.Scenarios.server sc.Scenarios.client with
  | Some p ->
      let wan =
        List.filter
          (fun lid -> (T.get_link sc.Scenarios.topo lid).T.kind = T.Wan)
          p.R.path_links
      in
      Alcotest.(check int) "one WAN hop" 1 (List.length wan)
  | None -> Alcotest.fail "no path"

let test_large_shape () =
  let sc = Scenarios.large () in
  Alcotest.(check int) "93 nodes" 93 (T.node_count sc.Scenarios.topo);
  Alcotest.(check bool) "connected" true (T.is_connected sc.Scenarios.topo);
  Alcotest.(check (option int)) "LAN-WAN-WAN-LAN path" (Some 4)
    (R.hop_distance sc.Scenarios.topo sc.Scenarios.server sc.Scenarios.client);
  match R.shortest_path sc.Scenarios.topo sc.Scenarios.server sc.Scenarios.client with
  | Some p ->
      let kinds =
        List.map (fun lid -> (T.get_link sc.Scenarios.topo lid).T.kind) p.R.path_links
      in
      Alcotest.(check bool) "LAN,WAN,WAN,LAN" true
        (kinds = [ T.Lan; T.Wan; T.Wan; T.Lan ])
  | None -> Alcotest.fail "no path"

let test_large_deterministic () =
  let a = Scenarios.large () and b = Scenarios.large () in
  Alcotest.(check int) "same server" a.Scenarios.server b.Scenarios.server;
  Alcotest.(check int) "same client" a.Scenarios.client b.Scenarios.client;
  Alcotest.(check int) "same links"
    (T.link_count a.Scenarios.topo) (T.link_count b.Scenarios.topo)

(* ---------------- table 2 ---------------- *)

let test_table2_cell_tiny () =
  let row = Table2.run_cell (Scenarios.tiny ()) Media.C in
  (match row.Table2.plan with
  | Some p -> Alcotest.(check int) "7 actions" 7 (Plan.length p)
  | None -> Alcotest.fail "expected plan");
  Alcotest.(check string) "network name" "Tiny" row.Table2.network

let test_table2_run_and_render () =
  let rows =
    Table2.run
      ~networks:[ Scenarios.tiny () ]
      ~levels:[ Media.A; Media.B; Media.C ]
      ()
  in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  let rendered = Table2.render rows in
  Alcotest.(check bool) "mentions Tiny" true (contains rendered "Tiny");
  Alcotest.(check bool) "A shows no plan" true (contains rendered "no plan");
  Alcotest.(check bool) "has headers" true (contains rendered "reserved LAN bw")

(* ---------------- figures ---------------- *)

let test_table1_text () =
  let t = Figures.table1 () in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains t needle))
    [ "[0,inf)"; "[90,100)"; "[31,62)"; "Table 1" ]

let test_fig3_4_text () =
  let t = Figures.fig3_4 () in
  Alcotest.(check bool) "greedy fails" true (contains t "NO PLAN");
  Alcotest.(check bool) "7-action plan" true (contains t "7 actions");
  Alcotest.(check bool) "paper wording" true (contains t "place Splitter on n0")

let test_fig5_text () =
  let t = Figures.fig5 ~weights:[ 0.5; 2.0 ] () in
  Alcotest.(check bool) "direct route appears" true (contains t "3 links direct");
  Alcotest.(check bool) "zip route appears" true (contains t "Zip/Unzip")

let test_fig9_text () =
  let t = Figures.fig9 () in
  Alcotest.(check bool) "10 actions" true (contains t "10 actions");
  Alcotest.(check bool) "13 actions" true (contains t "13 actions")

let test_fig10_text () =
  let t = Figures.fig10 () in
  Alcotest.(check bool) "93 nodes" true (contains t "nodes: 93");
  let dot = Figures.fig10 ~dot:true () in
  Alcotest.(check bool) "dot graph" true (contains dot "graph topology")

let test_ablation_text () =
  let t = Figures.postprocess_ablation () in
  Alcotest.(check bool) "throttles" true (contains t "post-processing throttles");
  Alcotest.(check bool) "levels required" true (contains t "resource levels are required")

(* ---------------- csv export ---------------- *)

let test_csv_export () =
  let rows =
    Table2.run ~networks:[ Scenarios.tiny () ] ~levels:[ Media.A; Media.C ] ()
  in
  let csv = Sekitei_harness.Csv_export.table2_csv rows in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check bool) "header first" true
    (contains (List.hd lines) "network,levels,found");
  Alcotest.(check bool) "A row marks no plan" true
    (List.exists (fun l -> contains l "Tiny,A,0") lines);
  Alcotest.(check bool) "C row found with 7 actions" true
    (List.exists (fun l -> contains l "Tiny,C,1,52.45,7") lines);
  (* every data line has the header's arity *)
  let arity l = List.length (String.split_on_char ',' l) in
  List.iter
    (fun l -> Alcotest.(check int) "arity" (arity (List.hd lines)) (arity l))
    lines;
  (* the count columns, between wan_peak and time_total_ms, are the
     count table's bench keys in table order *)
  Alcotest.(check (list string)) "header"
    ([
       "network"; "levels"; "found"; "cost_bound"; "plan_actions";
       "realized_cost"; "lan_peak"; "wan_peak";
     ]
    @ List.map Sekitei_harness.Bench_json.key Planner.counts
    @ [ "time_total_ms"; "time_search_ms" ])
    (String.split_on_char ',' (List.hd lines))

(* ---------------- bench baseline gate ---------------- *)

module Bench_json = Sekitei_harness.Bench_json

(* Real counts for the records below; of them the gate reads only
   rg_created. *)
let tiny_c_stats =
  lazy
    (let sc = Scenarios.tiny () in
     (Planner.plan
        (Planner.request sc.Scenarios.topo sc.Scenarios.app
           ~leveling:(Media.leveling Media.C sc.Scenarios.app)))
       .Planner.stats)

let bench_record ?(scenario = "Tiny-C") ?(search_ms = 10.) ?(rg_created = 100)
    ?(slrg_ms = 5.) () =
  {
    Bench_json.scenario;
    stats = { (Lazy.force tiny_c_stats) with Planner.rg_created };
    search_ms;
    search_ms_p50 = search_ms;
    search_ms_p90 = search_ms;
    search_ms_p99 = search_ms;
    warm_search_ms = 4.;
    compile_ms = 0.1;
    compile_minor_words = 30_000.;
    plrg_ms = 0.02;
    slrg_ms;
    rg_ms = 9.;
    minor_words = 120_000.;
    slrg_minor_words = 40_000.;
    major_collections = 1;
    jobs = 1;
    wall_ms_batch = 11.;
  }

let test_baseline_diff () =
  let base = bench_record () in
  let baseline = Bench_json.to_json [ base ] in
  (* Unchanged run: every delta is 0, nothing regresses. *)
  (match Bench_json.diff_baseline ~baseline [ base ] with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok deltas ->
      Alcotest.(check int) "one delta per gated metric"
        (List.length Bench_json.gated_metrics)
        (List.length deltas);
      List.iter
        (fun d -> Alcotest.(check (float 1e-9)) "no change" 0. d.Bench_json.d_pct)
        deltas;
      Alcotest.(check int) "no regressions" 0
        (List.length (Bench_json.regressions ~max_regress:50. deltas)));
  (* Inflated current run: search_ms doubled trips the gate, the exact
     rg_created and the improved slrg_ms do not. *)
  let slow = bench_record ~search_ms:20. ~slrg_ms:2. () in
  match Bench_json.diff_baseline ~baseline [ slow ] with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok deltas -> (
      match Bench_json.regressions ~max_regress:50. deltas with
      | [ d ] ->
          Alcotest.(check string) "search_ms trips" "search_ms"
            d.Bench_json.d_metric;
          Alcotest.(check (float 1e-6)) "+100%" 100. d.Bench_json.d_pct
      | ds -> Alcotest.failf "expected 1 regression, got %d" (List.length ds))

let test_baseline_diff_errors () =
  let r = bench_record () in
  (match Bench_json.diff_baseline ~baseline:"not json" [ r ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed baseline accepted");
  (match Bench_json.diff_baseline ~baseline:"{}" [ r ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-array baseline accepted");
  (* a baseline off the current schema is rejected, even when every
     gated key is present *)
  let renamed =
    match
      Sekitei_spec.Str_split.split_once (Bench_json.to_json [ r ])
        "\"compile_actions\""
    with
    | Some (before, after) -> before ^ "\"actions\"" ^ after
    | None -> Alcotest.fail "record has no compile_actions key"
  in
  (match Bench_json.diff_baseline ~baseline:renamed [ r ] with
  | Error e ->
      Alcotest.(check bool) "names the missing key" true
        (contains e "compile_actions")
  | Ok _ -> Alcotest.fail "baseline without compile_actions accepted");
  let other = Bench_json.to_json [ bench_record ~scenario:"Small-C" () ] in
  match Bench_json.diff_baseline ~baseline:other [ r ] with
  | Error e ->
      Alcotest.(check bool) "names the missing scenario" true
        (contains e "Tiny-C")
  | Ok _ -> Alcotest.fail "missing scenario accepted"

(* The slrg phase's allocation is a schema column: emitted, required by
   the schema check, and not gated. *)
let test_slrg_minor_words_column () =
  let doc = Bench_json.to_json [ bench_record () ] in
  Alcotest.(check bool) "emitted" true (contains doc "\"slrg_minor_words\": 40000");
  Alcotest.(check (result int string)) "parse_check" (Ok 1)
    (Bench_json.parse_check doc);
  let stripped =
    String.concat ""
      (String.split_on_char '\n' doc
      |> List.map (fun line ->
             match String.split_on_char ',' line with
             | [] -> line
             | fields ->
                 String.concat ","
                   (List.filter
                      (fun f -> not (contains f "slrg_minor_words"))
                      fields)))
  in
  Alcotest.(check bool) "parse_check rejects a record without it" true
    (Result.is_error (Bench_json.parse_check stripped));
  Alcotest.(check bool) "not gated" false
    (List.mem "slrg_minor_words" Bench_json.gated_metrics)

let suite =
  [
    ("tiny shape", `Quick, test_tiny_shape);
    ("small shape", `Quick, test_small_shape);
    ("large shape", `Quick, test_large_shape);
    ("large deterministic", `Quick, test_large_deterministic);
    ("table2 cell", `Quick, test_table2_cell_tiny);
    ("table2 run/render", `Quick, test_table2_run_and_render);
    ("table1 text", `Quick, test_table1_text);
    ("fig3-4 text", `Quick, test_fig3_4_text);
    ("fig5 text", `Quick, test_fig5_text);
    ("fig9 text", `Quick, test_fig9_text);
    ("fig10 text", `Quick, test_fig10_text);
    ("ablation text", `Quick, test_ablation_text);
    ("csv export", `Quick, test_csv_export);
    ("baseline diff", `Quick, test_baseline_diff);
    ("baseline diff errors", `Quick, test_baseline_diff_errors);
    ("slrg_minor_words column", `Quick, test_slrg_minor_words_column);
  ]

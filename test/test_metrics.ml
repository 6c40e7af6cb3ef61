(* Always-on metrics layer: histogram properties (percentile accuracy
   against the exact sample), registry recording from two domains and
   snapshot isolation, flight-recorder ring semantics and the planner's
   dump-on-failure hook, jsonl flushing, and the exposition encoders'
   schema validators. *)

module Q = QCheck
module Histogram = Sekitei_util.Histogram
module Running_stats = Sekitei_util.Running_stats
module Telemetry = Sekitei_telemetry.Telemetry
module Registry = Sekitei_telemetry.Registry
module Export = Sekitei_telemetry.Export
module Planner = Sekitei_core.Planner
module Session = Sekitei_core.Session
module Scenarios = Sekitei_harness.Scenarios
module Media = Sekitei_domains.Media

let of_values vs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) vs;
  h

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------------- histogram units ---------------- *)

let test_histogram_basics () =
  let h = of_values [ 0.; 1.; 10.; 100.; 1e-12; 5. ] in
  Alcotest.(check int) "count includes zero bucket" 6 (Histogram.count h);
  Alcotest.(check int) "zero bucket: 0 and sub-min" 2 (Histogram.zero_count h);
  Alcotest.(check (float 1e-9)) "min" 0. (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 100. (Histogram.max_value h);
  Alcotest.(check (float 1e-6)) "sum" 116. (Histogram.sum h);
  (* Bucketed estimates stay within the configured relative error. *)
  List.iter
    (fun (v, p) ->
      let est = Histogram.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within 1%% of %g (got %g)" (100. *. p) v est)
        true
        (Float.abs (est -. v) <= (0.01 *. v) +. 1e-9))
    [ (1., 0.4); (100., 1.0) ];
  Alcotest.(check (float 1e-9)) "p0 hits the zero bucket" 0.
    (Histogram.percentile h 0.)

let test_histogram_empty_and_errors () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check bool) "empty min is nan" true
    (Float.is_nan (Histogram.min_value h));
  try
    ignore (Histogram.percentile h 0.5);
    Alcotest.fail "percentile on empty should raise"
  with Invalid_argument _ -> ()

(* ---------------- histogram properties ---------------- *)

let prop_percentile_accuracy =
  (* At p = k/(n-1), Running_stats.percentile's linear interpolation
     lands exactly on the k-th order statistic, so the bucketed estimate
     must sit within the configured relative error of the exact sample
     value there. *)
  Q.Test.make ~count:300 ~name:"percentile within rel error of exact sample"
    (Q.pair
       (Q.list_of_size Q.Gen.(int_range 1 60) (Q.float_range 0.001 1000.))
       Q.small_nat)
    (fun (vs, k) ->
      let n = List.length vs in
      let k = k mod n in
      let p = if n = 1 then 0. else float_of_int k /. float_of_int (n - 1) in
      let exact = Running_stats.percentile p vs in
      let est = Histogram.percentile (of_values vs) p in
      Float.abs (est -. exact) <= (0.01 *. exact) +. 1e-9)

(* ---------------- registry ---------------- *)

let record_values reg n =
  Registry.count reg "work.items" n;
  for i = 1 to 100 do
    Registry.observe_ms reg "work.ms" (float_of_int (n * i))
  done;
  Registry.set_gauge reg "work.last" (float_of_int n)

let test_two_domains_exact () =
  let reg = Registry.create () in
  let d1 = Domain.spawn (fun () -> record_values reg 1) in
  let d2 = Domain.spawn (fun () -> record_values reg 2) in
  Domain.join d1;
  Domain.join d2;
  record_values reg 3;
  let snap = Registry.snapshot reg in
  Alcotest.(check int) "counters sum across domains" 6
    (Registry.counter_value snap "work.items");
  Alcotest.(check (float 1e-9)) "gauge takes the latest write" 3.
    (Option.get (Registry.gauge_value snap "work.last"));
  let recorded = Option.get (Registry.histogram_value snap "work.ms") in
  (* The histogram three domains recorded equals single-domain
     recording of the same values. *)
  let ref_reg = Registry.create () in
  List.iter (record_values ref_reg) [ 1; 2; 3 ];
  let expected =
    Option.get (Registry.histogram_value (Registry.snapshot ref_reg) "work.ms")
  in
  Alcotest.(check int) "300 samples" 300 (Histogram.count recorded);
  Alcotest.(check bool) "two domains == single-domain recording" true
    (Histogram.buckets recorded = Histogram.buckets expected
    && Histogram.sum recorded = Histogram.sum expected)

let test_snapshot_is_a_copy () =
  let reg = Registry.create () in
  record_values reg 1;
  let snap = Registry.snapshot reg in
  record_values reg 2;
  Alcotest.(check int) "counter as taken" 1
    (Registry.counter_value snap "work.items");
  Alcotest.(check (float 0.)) "gauge as taken" 1.
    (Option.get (Registry.gauge_value snap "work.last"));
  Alcotest.(check int) "histogram count as taken" 100
    (Histogram.count (Option.get (Registry.histogram_value snap "work.ms")));
  Alcotest.(check int) "the registry kept recording" 200
    (Histogram.count
       (Option.get
          (Registry.histogram_value (Registry.snapshot reg) "work.ms")))

(* ---------------- flight recorder ---------------- *)

let counter_ev i =
  Telemetry.Counter { name = "e"; total = i; t_ms = float_of_int i }

let ev_totals evs =
  List.filter_map
    (function Telemetry.Counter { total; _ } -> Some total | _ -> None)
    evs

let test_ring_wraparound () =
  let fl = Telemetry.Flight.create ~capacity:4 () in
  Alcotest.(check int) "capacity" 4 (Telemetry.Flight.capacity fl);
  Alcotest.(check (list int)) "empty ring" []
    (ev_totals (Telemetry.Flight.events fl));
  for i = 1 to 10 do
    Telemetry.Flight.record fl (counter_ev i)
  done;
  Alcotest.(check int) "recorded counts beyond capacity" 10
    (Telemetry.Flight.recorded fl);
  Alcotest.(check (list int)) "retains the last 4, oldest first"
    [ 7; 8; 9; 10 ]
    (ev_totals (Telemetry.Flight.events fl));
  Alcotest.(check (option string)) "no dump path" None
    (Telemetry.Flight.dump_to_path fl)

let test_ring_dump_format () =
  let path = Filename.temp_file "sekitei_flight" ".jsonl" in
  let fl = Telemetry.Flight.create ~capacity:2 ~dump_path:path () in
  List.iter (Telemetry.Flight.record fl) [ counter_ev 1; counter_ev 2; counter_ev 3 ];
  Alcotest.(check (option string)) "dumps to the configured path"
    (Some path)
    (Telemetry.Flight.dump_to_path fl);
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "meta line + 2 retained events" 3 (List.length lines);
  let meta = List.hd lines in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in meta") true
        (Sekitei_spec.Str_split.split_once meta needle <> None))
    [ "flight_dump"; "\"capacity\": 2"; "\"recorded\": 3"; "\"dropped\": 1" ];
  Sys.remove path

let test_dump_on_failure () =
  let path = Filename.temp_file "sekitei_flight" ".jsonl" in
  let fl = Telemetry.Flight.create ~dump_path:path () in
  let telemetry = Telemetry.create ~flight:fl [] in
  let sc = Scenarios.tiny () in
  let config = { Planner.default_config with deadline_ms = Some 0. } in
  let o =
    Planner.plan
      (Planner.request ~config ~telemetry sc.Scenarios.topo sc.Scenarios.app
         ~leveling:(Media.leveling Media.C sc.Scenarios.app))
  in
  (match o.Planner.result with
  | Error (Planner.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "deadline 0 should not produce a plan"
  | Error _ -> Alcotest.fail "expected Deadline_exceeded");
  let body = read_file path in
  Alcotest.(check bool) "dump written with meta line" true
    (Sekitei_spec.Str_split.split_once body "flight_dump" <> None);
  Alcotest.(check bool) "dump carries the failure evidence" true
    (Sekitei_spec.Str_split.split_once body "deadline" <> None);
  Sys.remove path

(* A dump path that cannot be written costs the dump, never the report:
   the deadline failure still comes back, and no dump is counted. *)
let test_dump_unwritable () =
  let file = Filename.temp_file "sekitei_flight" ".jsonl" in
  (* A regular file cannot be a directory, so this path never opens. *)
  let path = Filename.concat file "dump.jsonl" in
  let telemetry =
    Telemetry.create ~flight:(Telemetry.Flight.create ~dump_path:path ()) []
  in
  let metrics = Registry.create () in
  let sc = Scenarios.tiny () in
  let config = { Planner.default_config with deadline_ms = Some 0. } in
  let o =
    Planner.plan ~metrics
      (Planner.request ~config ~telemetry sc.Scenarios.topo sc.Scenarios.app
         ~leveling:(Media.leveling Media.C sc.Scenarios.app))
  in
  (match o.Planner.result with
  | Error (Planner.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "deadline 0 should not produce a plan"
  | Error _ -> Alcotest.fail "expected Deadline_exceeded");
  Alcotest.(check int) "no dump counted" 0
    (Registry.counter_value (Registry.snapshot metrics) "session.flight_dumps");
  Sys.remove file

(* ---------------- jsonl ---------------- *)

let test_jsonl_root_flush () =
  let path = Filename.temp_file "sekitei_trace" ".jsonl" in
  let oc = open_out path in
  let t = Telemetry.create [ Telemetry.jsonl oc ] in
  Telemetry.with_span t "root" (fun () ->
      Telemetry.with_span t "child" (fun () -> ()));
  (* No close yet: the root Span_end must have flushed the channel, so a
     concurrent reader (live tail, postmortem of a killed process) sees
     the whole span tree. *)
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "4 events visible before close" 4 (List.length lines);
  Telemetry.close t;
  close_out oc;
  Sys.remove path

(* ---------------- exposition ---------------- *)

let test_export_validators () =
  let reg = Registry.create () in
  Registry.count reg "session.plans" 3;
  Registry.set_gauge reg "plan.last_cost" 52.45;
  List.iter (Registry.observe_ms reg "plan.total_ms") [ 0.; 0.4; 12.; 250. ];
  let snap = Registry.snapshot reg in
  (match Export.validate_prometheus (Export.to_prometheus snap) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "prometheus rejected: %s" e);
  match Export.validate_json (Export.to_json snap) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "json rejected: %s" e

let test_session_metrics () =
  let sc = Scenarios.tiny () in
  let session =
    Session.create
      (Planner.request sc.Scenarios.topo sc.Scenarios.app
         ~leveling:(Media.leveling Media.C sc.Scenarios.app))
  in
  (match (Session.plan session).Planner.result with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "tiny-C should plan");
  ignore (Session.plan session : Planner.report);
  let snap = Session.metrics_snapshot session in
  let counter = Registry.counter_value snap in
  Alcotest.(check int) "session.plans" 2 (counter "session.plans");
  Alcotest.(check int) "session.plans_ok" 2 (counter "session.plans_ok");
  Alcotest.(check int) "one cold plan" 1 (counter "session.cold_plans");
  Alcotest.(check int) "one warm plan" 1 (counter "session.warm_plans");
  Alcotest.(check int) "rg.searches" 2 (counter "rg.searches");
  (match Registry.histogram_value snap "plan.total_ms" with
  | Some h -> Alcotest.(check int) "plan.total_ms samples" 2 (Histogram.count h)
  | None -> Alcotest.fail "plan.total_ms histogram missing");
  match Registry.gauge_value snap "plan.last_cost" with
  | Some c -> Alcotest.(check (float 1e-6)) "last cost" 52.45 c
  | None -> Alcotest.fail "plan.last_cost gauge missing"

let qcheck = [ QCheck_alcotest.to_alcotest prop_percentile_accuracy ]

let suite =
  [
    ("histogram basics", `Quick, test_histogram_basics);
    ("histogram empty/errors", `Quick, test_histogram_empty_and_errors);
    ("two-domain exact totals", `Quick, test_two_domains_exact);
    ("snapshot is a copy", `Quick, test_snapshot_is_a_copy);
    ("flight ring wraparound", `Quick, test_ring_wraparound);
    ("flight dump format", `Quick, test_ring_dump_format);
    ("flight dump on failure", `Quick, test_dump_on_failure);
    ("flight dump unwritable", `Quick, test_dump_unwritable);
    ("jsonl root flush", `Quick, test_jsonl_root_flush);
    ("export validators", `Quick, test_export_validators);
    ("session metrics", `Quick, test_session_metrics);
  ]
  @ qcheck

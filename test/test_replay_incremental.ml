(* Tests for the incremental-replay search engine:

   - the Replay snapshot/extend API agrees with from-scratch Replay.run
     over random action tails (accept/reject outcome AND metrics);
   - extend is persistent (branching from one parent never cross-talks,
     and a failed extension leaves the parent as it was);
   - RG duplicate detection never changes the returned plan cost on the
     Tiny/Small scenarios;
   - the machine-readable bench pipeline emits schema-valid JSON. *)

module Q = QCheck
module Compile = Sekitei_core.Compile
module Problem = Sekitei_core.Problem
module Action = Sekitei_core.Action
module Replay = Sekitei_core.Replay
module Plrg = Sekitei_core.Plrg
module Slrg = Sekitei_core.Slrg
module Rg = Sekitei_core.Rg
module Media = Sekitei_domains.Media
module Scenarios = Sekitei_harness.Scenarios
module Bench_json = Sekitei_harness.Bench_json
module Planner = Sekitei_core.Planner
module G = Sekitei_network.Generators
module T = Sekitei_network.Topology

let tiny_pb level =
  let app = Media.app ~server:0 ~client:1 () in
  let leveling = Media.leveling level app in
  Compile.compile (G.line_kinds [ T.Wan ]) app leveling

(* ---------------- extend == run equivalence ---------------- *)

let run_incremental pb ~mode tail =
  let rec go rs = function
    | [] -> Ok (Replay.rstate_metrics pb rs)
    | a :: rest -> (
        match Replay.extend pb ~mode rs a with
        | Ok rs' -> go rs' rest
        | Error f -> Error f)
  in
  go (Replay.initial pb) tail

let same_float a b = (Float.is_nan a && Float.is_nan b) || a = b

let same_metrics (a : Replay.metrics) (b : Replay.metrics) =
  same_float a.Replay.realized_cost b.Replay.realized_cost
  && same_float a.Replay.lan_peak b.Replay.lan_peak
  && same_float a.Replay.wan_peak b.Replay.wan_peak
  && same_float a.Replay.lan_total b.Replay.lan_total
  && same_float a.Replay.wan_total b.Replay.wan_total
  && a.Replay.node_cpu_used = b.Replay.node_cpu_used
  && a.Replay.link_used = b.Replay.link_used
  && a.Replay.delivered = b.Replay.delivered

let same_outcome from_scratch incremental =
  match (from_scratch, incremental) with
  | Ok m1, Ok m2 -> same_metrics m1 m2
  | Error (f1 : Replay.failure), Error f2 ->
      f1.Replay.failed_index = f2.Replay.failed_index
      && f1.Replay.failed_action = f2.Replay.failed_action
      && (Lazy.force f1.Replay.reason) = (Lazy.force f2.Replay.reason)
  | _ -> false

let tail_gen pb =
  let n = Array.length pb.Problem.actions in
  Q.Gen.(
    map
      (List.map (fun i -> pb.Problem.actions.(i)))
      (list_size (0 -- 8) (int_bound (n - 1))))

let arb_tail pb =
  Q.make
    ~print:(fun tail ->
      String.concat "; " (List.map (fun a -> a.Action.label) tail))
    (tail_gen pb)

let prop_equiv level mode name =
  let pb = tiny_pb level in
  Q.Test.make ~count:500 ~name (arb_tail pb) (fun tail ->
      same_outcome (Replay.run pb ~mode tail) (run_incremental pb ~mode tail))

let prop_equiv_from_init =
  prop_equiv Media.C Replay.From_init "extend == run (from-init, C)"

let prop_equiv_regression =
  prop_equiv Media.C Replay.Regression "extend == run (regression, C)"

let prop_equiv_greedy =
  prop_equiv Media.A Replay.Regression "extend == run greedy-A (regression)"

let prop_equiv_regression_e =
  prop_equiv Media.E Replay.Regression "extend == run (regression, E)"

(* ---------------- persistence of parent states ---------------- *)

let splitter_at_server pb =
  Array.to_list pb.Problem.actions
  |> List.filter (fun (a : Action.t) ->
         match a.Action.kind with
         | Action.Place { comp; node = 0 } ->
             Problem.comp_index pb "Splitter" = comp
         | _ -> false)
  |> List.hd

let test_extend_persistent () =
  let pb = tiny_pb Media.C in
  let parent = Replay.initial pb in
  let splitter = splitter_at_server pb in
  let snapshot rs = Replay.rstate_metrics pb rs in
  let before = snapshot parent in
  (match Replay.extend pb ~mode:Replay.Regression parent splitter with
  | Ok child ->
      Alcotest.(check bool)
        "child advanced" true
        (Replay.rstate_length child = 1 && Replay.rstate_cost child >= 0.)
  | Error f -> Alcotest.failf "extend failed: %s" (Lazy.force f.Replay.reason));
  (* The parent must be untouched and re-extensible with identical results. *)
  Alcotest.(check bool) "parent unchanged" true (same_metrics before (snapshot parent));
  match
    ( Replay.extend pb ~mode:Replay.Regression parent splitter,
      Replay.extend pb ~mode:Replay.Regression parent splitter )
  with
  | Ok a, Ok b ->
      Alcotest.(check bool)
        "re-extension deterministic" true
        (same_metrics (Replay.rstate_metrics pb a) (Replay.rstate_metrics pb b))
  | _ -> Alcotest.fail "re-extension failed"

(* A failed extension must not leak into its parent either.  On greedy
   level A the server's splitter overruns the CPU only after its input
   has been throttled into the state; a partial write-through to the
   parent would change the parent's metrics or its later extensions,
   and both are checked. *)
let test_failed_extend_persistent () =
  let pb = tiny_pb Media.A in
  let mode = Replay.Regression in
  let splitter = splitter_at_server pb in
  (* A non-empty parent: the first action that extends the initial
     state and leaves the splitter still failing. *)
  let parent, first =
    Array.to_list pb.Problem.actions
    |> List.find_map (fun a ->
           match Replay.extend pb ~mode (Replay.initial pb) a with
           | Ok rs when Result.is_error (Replay.extend pb ~mode rs splitter) ->
               Some (rs, a)
           | Ok _ | Error _ -> None)
    |> Option.get
  in
  let before = Replay.rstate_metrics pb parent in
  (match Replay.extend pb ~mode parent splitter with
  | Ok _ -> Alcotest.fail "splitter at full rate should overrun the CPU"
  | Error f ->
      Alcotest.(check bool) "cpu overrun" true
        (Sekitei_spec.Str_split.split_once (Lazy.force f.Replay.reason) "cpu" <> None);
      Alcotest.(check int) "failure indexed after the parent" 1
        f.Replay.failed_index);
  Alcotest.(check bool) "parent metrics unchanged" true
    (same_metrics before (Replay.rstate_metrics pb parent));
  Alcotest.(check int)
    "parent length unchanged" 1
    (Replay.rstate_length parent);
  (* Still extensible: some action extends the parent, exactly as a
     from-scratch run of the two-action tail. *)
  let extended =
    Array.to_list pb.Problem.actions
    |> List.filter_map (fun a ->
           match Replay.extend pb ~mode parent a with
           | Ok rs -> Some (a, rs)
           | Error _ -> None)
  in
  Alcotest.(check bool) "parent still extensible" true (extended <> []);
  List.iter
    (fun ((a : Action.t), rs) ->
      Alcotest.(check bool)
        ("extension agrees with run: " ^ a.Action.label)
        true
        (same_outcome
           (Replay.run pb ~mode [ first; a ])
           (Ok (Replay.rstate_metrics pb rs))))
    extended

(* ---------------- duplicate detection ---------------- *)

(* Small-C: on Tiny-C the search generates no permutation of a tail it
   already holds, because the children that would be one have f above
   the optimum and are never generated. *)
let test_dedup_counts_duplicates () =
  let sc = Scenarios.small () in
  let pb =
    Compile.compile sc.Scenarios.topo sc.Scenarios.app
      (Media.leveling Media.C sc.Scenarios.app)
  in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let _, s = Rg.search pb slrg in
  Alcotest.(check bool) "duplicates detected" true (s.Rg.duplicates > 0)

(* ---------------- bench JSON schema ---------------- *)

let test_bench_json_schema () =
  let r = Bench_json.measure (Scenarios.tiny ()) Media.C in
  let s = r.Bench_json.stats in
  Alcotest.(check bool) "actions positive" true (s.Planner.compile_actions > 0);
  Alcotest.(check bool) "created positive" true (s.Planner.rg.created > 0);
  let doc = Bench_json.to_json [ r ] in
  (match Bench_json.parse_check doc with
  | Ok n -> Alcotest.(check int) "one record" 1 n
  | Error e -> Alcotest.failf "schema: %s" e);
  let p = r.Bench_json.phases in
  Alcotest.(check bool) "phase timings cover the search" true
    (p.Planner.plrg.Planner.ms >= 0.
    && p.Planner.slrg.Planner.ms >= 0.
    && p.Planner.rg.Planner.ms >= 0.
    && p.Planner.compile.Planner.ms >= 0.);
  Alcotest.(check bool) "slrg cache counters present and sane" true
    (s.Planner.slrg.cache_hits >= 0
    && s.Planner.slrg.suffix_harvested >= 0
    && s.Planner.slrg.bound_promoted >= 0);
  let tagged = Bench_json.to_json ~tag:"test" [ r; r ] in
  (match Bench_json.parse_check tagged with
  | Ok n -> Alcotest.(check int) "parses as two records" 2 n
  | Error e -> Alcotest.failf "parse_check: %s" e);
  (match Bench_json.parse_check "[{\"scenario\": \"x\"}]" with
  | Ok _ -> Alcotest.fail "incomplete record accepted"
  | Error _ -> ());
  match Bench_json.parse_check "{\"not\": \"an array\"}" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_equiv_from_init;
      prop_equiv_regression;
      prop_equiv_greedy;
      prop_equiv_regression_e;
    ]
  @ [
      ("extend is persistent", `Quick, test_extend_persistent);
      ( "failed extend leaves parent intact",
        `Quick,
        test_failed_extend_persistent );
      ("dedup counts duplicates", `Quick, test_dedup_counts_duplicates);
      ("bench json schema", `Quick, test_bench_json_schema);
    ]

(* Plan explanations, unsolvability certificates, and the
   heuristic-quality analysis. *)

module Planner = Sekitei_core.Planner
module Session = Sekitei_core.Session
module Plan = Sekitei_core.Plan
module Explain = Sekitei_core.Explain
module Replay = Sekitei_core.Replay
module Compile = Sekitei_core.Compile
module Plrg = Sekitei_core.Plrg
module Problem = Sekitei_core.Problem
module Propset = Sekitei_core.Propset
module Slrg = Sekitei_core.Slrg
module Rg = Sekitei_core.Rg
module Deadline = Sekitei_util.Deadline
module Hquality = Sekitei_harness.Hquality
module Media = Sekitei_domains.Media
module Model = Sekitei_spec.Model
module Scenarios = Sekitei_harness.Scenarios
module T = Sekitei_network.Topology

let solve ?(config = Planner.default_config) (sc : Scenarios.t) level =
  let leveling = Media.leveling level sc.Scenarios.app in
  Planner.plan
    (Planner.request ~config sc.Scenarios.topo sc.Scenarios.app ~leveling)

let expect_plan what (report : Planner.report) =
  match report.Planner.result with
  | Ok p -> p
  | Error r -> Alcotest.failf "%s: no plan (%a)" what Planner.pp_failure r

(* Plan through a session; the plan comes back with the session's
   compiled problem, which `sekitei plan --explain` and `--hquality`
   read it against. *)
let planned (sc : Scenarios.t) level =
  let leveling = Media.leveling level sc.Scenarios.app in
  let session =
    Session.create
      (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling)
  in
  let report = Session.plan session in
  let p = expect_plan "plan" report in
  (report, Option.get (Session.problem session), p)

let explained sc level =
  let _, pb, p = planned sc level in
  match Explain.explain pb p with
  | Ok ex -> (p, ex)
  | Error e -> Alcotest.failf "explain failed: %s" e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

(* ---------------- explanations ---------------- *)

(* The cost-lb column total must equal the plan's optimized bound
   bit-for-bit: Explain sums in the search's own accumulation order. *)
let test_explain_total_exact () =
  List.iter
    (fun (sc, level) ->
      let p, ex = explained sc level in
      Alcotest.(check bool)
        "total equals cost_lb exactly" true
        (ex.Explain.plan_cost = p.Plan.cost_lb);
      Alcotest.(check int)
        "one step per action" (Plan.length p)
        (List.length ex.Explain.steps))
    [
      (Scenarios.tiny (), Media.C);
      (Scenarios.small (), Media.C);
      (Scenarios.small (), Media.E);
    ]

let test_explain_bindings () =
  let _, ex = explained (Scenarios.small ()) Media.C in
  List.iter
    (fun (s : Explain.step) ->
      match s.Explain.binding with
      | None -> Alcotest.failf "step %d has no binding" s.Explain.index
      | Some b ->
          Alcotest.(check bool)
            "feasible step has non-negative slack" true
            (b.Explain.slack >= 0.);
          Alcotest.(check bool)
            "consumption within capacity" true
            (b.Explain.total_used <= b.Explain.capacity);
          Alcotest.(check bool)
            "step consumption part of the total" true
            (b.Explain.step_used <= b.Explain.total_used +. 1e-9))
    ex.Explain.steps;
  let rendered = Explain.render ex in
  Alcotest.(check bool) "render has a totals row" true
    (contains rendered "total")

let test_explain_realized_matches_metrics () =
  let p, ex = explained (Scenarios.small ()) Media.C in
  Alcotest.(check (float 1e-6))
    "realized total matches replay metrics"
    p.Plan.metrics.Replay.realized_cost ex.Explain.realized_cost

(* ---------------- certificates ---------------- *)

let test_certificate_unreachable () =
  (* Partitioned network: the client's island cannot receive M. *)
  let app = Media.app ~server:0 ~client:1 () in
  let topo = T.make ~nodes:[ T.node 0 "n0"; T.node 1 "n1" ] ~links:[] in
  let o =
    Planner.plan
      (Planner.request topo app ~leveling:(Media.leveling Media.C app))
  in
  match o.Planner.result with
  | Error (Planner.Unreachable_goal { goals; chain } as failure) -> (
      let goal = List.hd goals in
      Alcotest.(check bool) "goal named" true (goal <> "");
      Alcotest.(check bool) "chain starts at the goal" true
        (match chain with g :: _ -> g = goal | [] -> false);
      let cut = List.hd (List.rev chain) in
      match Explain.certificate failure with
      | None -> Alcotest.fail "no certificate for an unreachable goal"
      | Some text ->
          Alcotest.(check bool) "render names the goal" true
            (String.starts_with ~prefix:("unsolvable: goal " ^ goal) text);
          Alcotest.(check bool) "render names the cut" true
            (contains text ("pruned by the PLRG: " ^ cut));
          Alcotest.(check bool) "render lists the chain" true
            (contains text (String.concat " <- " chain)))
  | Ok _ -> Alcotest.fail "partitioned instance solved"
  | Error r -> Alcotest.failf "wrong reason: %a" Planner.pp_failure r

let test_certificate_frontier () =
  let config = { Planner.default_config with Planner.rg_max_expansions = 1 } in
  let o = solve ~config (Scenarios.small ()) Media.C in
  match o.Planner.result with
  | Error
      (Planner.Search_limit { frontier = { Rg.best_f; tail; unmet }; _ } as
       failure) ->
      Alcotest.(check bool) "positive admissible bound" true (best_f > 0.);
      Alcotest.(check bool) "frontier tail non-empty" true (tail <> []);
      Alcotest.(check bool) "unmet preconditions listed" true (unmet <> []);
      Alcotest.(check bool) "budget wording" true
        (match Explain.certificate failure with
        | Some text ->
            String.starts_with ~prefix:"search budget exhausted: " text
        | None -> false)
  | Ok _ -> Alcotest.fail "budget-1 search solved Small-C"
  | Error r -> Alcotest.failf "wrong reason: %a" Planner.pp_failure r

(* A deadline cutoff words its frontier as a deadline, not a budget; the
   frontier comes from a deterministic counting deadline fed straight to
   the RG search.  Failures without frontier evidence certify nothing. *)
let test_certificate_deadline () =
  let sc = Scenarios.small () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  let pb = Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling in
  let slrg = Slrg.create pb (Plrg.build pb) in
  match Rg.search ~deadline:(Deadline.counting 10) pb slrg with
  | Rg.Cutoff { by = `Deadline; expansions; frontier }, _ ->
      let failure =
        Planner.Deadline_exceeded
          { phase = "rg"; expansions; frontier = Some frontier }
      in
      let bound =
        Printf.sprintf "best frontier bound f = %g" frontier.Rg.best_f
      in
      (match Explain.certificate failure with
      | Some text ->
          Alcotest.(check bool) "deadline wording" true
            (String.starts_with ~prefix:("deadline reached: " ^ bound) text);
          Alcotest.(check bool) "no budget wording" false
            (contains text "budget")
      | None -> Alcotest.fail "no certificate for an in-search deadline");
      Alcotest.(check bool) "no evidence when resources ran out" true
        (Explain.certificate Planner.Resource_exhausted = None);
      Alcotest.(check bool) "no evidence for a compile-phase deadline" true
        (Explain.certificate
           (Planner.Deadline_exceeded
              { phase = "compile"; expansions = 0; frontier = None })
        = None)
  | _ -> Alcotest.fail "expected a deadline cutoff"

(* ---------------- heuristic quality ---------------- *)

(* Heuristic quality is read off the plan after planning, as
   `sekitei plan --hquality` does. *)
let profiled sc level =
  let report, pb, p = planned sc level in
  let samples = Hquality.samples pb p in
  let hq =
    Hquality.analyze ~plan_cost:p.Plan.cost_lb
      ~expanded:report.Planner.stats.Planner.rg.expanded samples
  in
  (pb, p, samples, hq)

let test_hquality_zero_violations () =
  List.iter
    (fun (sc, level) ->
      let _, _, _, hq = profiled sc level in
      Alcotest.(check int) "slrg admissible" 0
        hq.Hquality.slrg.Hquality.violations;
      Alcotest.(check int) "plrg admissible" 0
        hq.Hquality.plrg.Hquality.violations;
      Alcotest.(check bool) "path sampled" true (hq.Hquality.path_nodes > 0);
      Alcotest.(check bool) "wasted ratio in [0,1]" true
        (hq.Hquality.wasted_ratio >= 0. && hq.Hquality.wasted_ratio <= 1.);
      (* SLRG refines PLRG, so its error cannot be larger on average. *)
      Alcotest.(check bool) "slrg at least as informed as plrg" true
        (hq.Hquality.slrg.Hquality.mean_err
        <= hq.Hquality.plrg.Hquality.mean_err +. 1e-9))
    [
      (Scenarios.tiny (), Media.C);
      (Scenarios.tiny (), Media.D);
      (Scenarios.small (), Media.C);
      (Scenarios.small (), Media.E);
    ]

let test_hquality_samples_on_path () =
  let _, p, samples, hq = profiled (Scenarios.small ()) Media.C in
  (* One sample per solution-path node, the root included: exactly plan
     length + 1 samples, with g growing along the chain (root first). *)
  Alcotest.(check int) "one sample per path node" (Plan.length p + 1)
    (List.length samples);
  (match samples with
  | root :: _ ->
      Alcotest.(check (float 1e-9)) "root starts at g=0" 0. root.Hquality.g
  | [] -> ());
  let rec monotone = function
    | (a : Hquality.sample) :: (b :: _ as rest) ->
        a.Hquality.g <= b.Hquality.g +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "g non-decreasing root-to-goal" true
    (monotone samples);
  let render = Hquality.render hq in
  Alcotest.(check bool) "render names both phases" true
    (contains render "slrg" && contains render "plrg")

(* The chain runs from the goal set at g = 0 to the empty set, where
   both heuristics are 0 and g is the plan's cost bound: summed in the
   search's order, it is the same float. *)
let test_hquality_chain_ends () =
  List.iter
    (fun sc ->
      let pb, p, samples, _ = profiled sc Media.C in
      let first = List.hd samples and last = List.hd (List.rev samples) in
      Alcotest.(check bool) "root g is 0" true
        (Float.equal first.Hquality.g 0.);
      Alcotest.(check int) "root is the goal set"
        (Array.length (Propset.canonical_array pb pb.Problem.goal_props))
        first.Hquality.set_size;
      Alcotest.(check int) "last set empty" 0 last.Hquality.set_size;
      Alcotest.(check bool) "h of the empty set is 0" true
        (Float.equal last.Hquality.h_slrg 0.
        && Float.equal last.Hquality.h_plrg 0.);
      Alcotest.(check bool) "last g is the plan's cost bound" true
        (Float.equal last.Hquality.g p.Plan.cost_lb))
    [ Scenarios.small (); Scenarios.large () ]

let suite =
  [
    Alcotest.test_case "explain: totals exact" `Quick test_explain_total_exact;
    Alcotest.test_case "explain: bindings and slack" `Quick test_explain_bindings;
    Alcotest.test_case "explain: realized cost" `Quick
      test_explain_realized_matches_metrics;
    Alcotest.test_case "certificate: unreachable cut" `Quick
      test_certificate_unreachable;
    Alcotest.test_case "certificate: search frontier" `Quick
      test_certificate_frontier;
    Alcotest.test_case "certificate: deadline wording" `Quick
      test_certificate_deadline;
    Alcotest.test_case "hquality: zero violations" `Quick
      test_hquality_zero_violations;
    Alcotest.test_case "hquality: path samples" `Quick
      test_hquality_samples_on_path;
    Alcotest.test_case "hquality: chain ends at the plan's cost" `Quick
      test_hquality_chain_ends;
  ]

(* Long-lived planning sessions: the pipeline engine behind {!Planner}.

   A session holds the compiled state of one (topology, app, leveling)
   triple — the leveled problem, the PLRG, and the SLRG oracle with its
   hash-consing ctx — and serves many plan requests against it.  The
   first request compiles (and reports compile/plrg timings exactly like
   a one-shot run); later requests start from the hot state and skip
   straight to the search.  {!update} applies a topology delta with
   dependency-tracked invalidation: only grounding groups at sites whose
   capacities changed are recompiled ({!Compile.recompile}).  A
   recompiled problem that poses the same leveled problem
   ({!Problem.leveled_diff} [Same]) keeps the PLRG and the whole oracle;
   one with only fewer actions keeps the oracle entries whose witnessed
   optimal path survives ({!Slrg.shrink}); any other drops the oracle,
   and the next plan creates a fresh one as a cold run does.

   Warm-equals-cold contract: a warm re-plan returns bit-identical
   results (plan actions, cost bounds, failure constructors) to a cold
   [Planner.plan] of the current topology, provided no SLRG root query
   exhausted its budget in the cold run.  Exact solved entries and h_max
   values are path-independent facts about the problem, so carrying them
   is invisible; budget-exhausted {e bounds} are query-order-dependent,
   which is why {!Slrg.begin_request} drops all of them (and refills the
   escalation pool) at every request start.  Under budget exhaustion the
   served bound may differ from the cold one — still admissible, and the
   search still returns a correct plan, but tie-breaking may diverge.
   After an update that dropped the oracle, the re-plan is a cold search
   of a problem identical to a cold compile's, so it matches a cold run
   exactly, search counts included, with or without budget exhaustion. *)

let src = Logs.Src.create "sekitei.planner" ~doc:"Sekitei planner phases"

module Log = (val Logs.src_log src : Logs.LOG)
module Timer = Sekitei_util.Timer
module Deadline = Sekitei_util.Deadline
module Telemetry = Sekitei_telemetry.Telemetry
module Registry = Sekitei_telemetry.Registry
module Topology = Sekitei_network.Topology
module Mutate = Sekitei_network.Mutate
module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Validate = Sekitei_spec.Validate
module Diagnostic = Sekitei_util.Diagnostic

type config = {
  slrg_query_budget : int;
  rg_max_expansions : int;
  validate_spec : bool;
  deadline_ms : float option;
  certify : bool;
}

let default_config =
  {
    slrg_query_budget = 500;
    rg_max_expansions = 500_000;
    validate_spec = true;
    deadline_ms = None;
    certify = false;
  }

type failure_reason =
  | Invalid_spec of string
  | Unreachable_goal of { goals : string list; chain : string list }
  | Resource_exhausted
  | Search_limit of { expansions : int; frontier : Rg.frontier }
  | Deadline_exceeded of {
      phase : string;
      expansions : int;
      frontier : Rg.frontier option;
    }
  | Certification_failed of string

type stats = {
  compile_actions : int;
  plrg_relevant_props : int;
  plrg_relevant_actions : int;
  slrg : Slrg.stats;
  rg : Rg.stats;
  invalidated_actions : int;
  evicted_entries : int;
  t_total_ms : float;
  t_search_ms : float;
}

type request = {
  topo : Topology.t;
  app : Model.app;
  leveling : Leveling.t;
  config : config;
  telemetry : Telemetry.t;
}

let request ?(config = default_config) ?(telemetry = Telemetry.null)
    ?(leveling = Leveling.empty) topo app =
  { topo; app; leveling; config; telemetry }

type phase = { ms : float; minor_words : float; major_collections : int }
type phases = { compile : phase; plrg : phase; slrg : phase; rg : phase }

type report = {
  result : (Plan.t, failure_reason) Stdlib.result;
  phases : phases;
  stats : stats;
}

let no_stats =
  {
    compile_actions = 0;
    plrg_relevant_props = 0;
    plrg_relevant_actions = 0;
    slrg = Slrg.no_stats;
    rg = Rg.no_stats;
    invalidated_actions = 0;
    evicted_entries = 0;
    t_total_ms = 0.;
    t_search_ms = 0.;
  }

(* The report's counts, declared once: each row names a count, the
   stage a request must reach for it to measure anything, and where
   [stats] holds it.  The trace's Counter events, the registry's
   counters and the bench record's keys are all read off this table. *)
type stage = Requested | Compiled | Searched
type count = { name : string; stage : stage; get : stats -> int }

let counts =
  let row stage name get = { name; stage; get } in
  [
    row Compiled "compile.actions" (fun s -> s.compile_actions);
    row Compiled "plrg.relevant_props" (fun s -> s.plrg_relevant_props);
    row Compiled "plrg.relevant_actions" (fun s -> s.plrg_relevant_actions);
    row Searched "slrg.nodes" (fun s -> s.slrg.nodes);
    row Searched "slrg.queries" (fun s -> s.slrg.queries);
    row Searched "rg.created" (fun s -> s.rg.created);
    row Searched "rg.open_left" (fun s -> s.rg.open_left);
    row Searched "rg.expanded" (fun s -> s.rg.expanded);
    row Searched "rg.replay_pruned" (fun s -> s.rg.replay_pruned);
    row Searched "rg.ungenerated" (fun s -> s.rg.ungenerated);
    row Searched "rg.final_replay_rejected" (fun s ->
        s.rg.final_replay_rejected);
    row Searched "rg.duplicates" (fun s -> s.rg.duplicates);
    row Searched "rg.order_repaired" (fun s -> s.rg.order_repaired);
    row Searched "slrg.cache_hits" (fun s -> s.slrg.cache_hits);
    row Searched "slrg.suffix_harvested" (fun s -> s.slrg.suffix_harvested);
    row Searched "slrg.bound_promoted" (fun s -> s.slrg.bound_promoted);
    row Searched "slrg.deferred" (fun s -> s.rg.slrg_deferred);
    row Searched "slrg.saved" (fun s -> s.rg.slrg_saved);
    row Requested "session.invalidated_actions" (fun s ->
        s.invalidated_actions);
    row Requested "session.evicted_entries" (fun s -> s.evicted_entries);
  ]

let no_phase = { ms = 0.; minor_words = 0.; major_collections = 0 }

let empty_phases =
  { compile = no_phase; plrg = no_phase; slrg = no_phase; rg = no_phase }

(* ------------------------------------------------------------------ *)
(* Pretty-printers                                                     *)
(* ------------------------------------------------------------------ *)

let pp_failure fmt = function
  | Invalid_spec msg -> Format.fprintf fmt "invalid specification: %s" msg
  | Unreachable_goal { goals = []; _ } ->
      Format.pp_print_string fmt "goal logically unreachable"
  | Unreachable_goal { goals; _ } ->
      Format.fprintf fmt "goal logically unreachable (%s)"
        (String.concat ", " goals)
  | Resource_exhausted ->
      Format.pp_print_string fmt "no resource-feasible plan found"
  | Search_limit { expansions; frontier } ->
      Format.fprintf fmt
        "search budget exceeded after %d expansions (best open bound %g)"
        expansions frontier.Rg.best_f
  | Deadline_exceeded { phase; expansions; frontier } -> (
      Format.fprintf fmt "deadline exceeded in %s phase" phase;
      if expansions > 0 then Format.fprintf fmt " after %d expansions" expansions;
      match frontier with
      | Some fr -> Format.fprintf fmt " (best open bound %g)" fr.Rg.best_f
      | None -> ())
  | Certification_failed reason ->
      Format.fprintf fmt "emitted plan failed independent certification: %s"
        reason

let pp_stats fmt s =
  Format.fprintf fmt
    "actions=%d plrg=%d/%d slrg=%d rg=%d/%d expanded=%d pruned=%d \
     ungenerated=%d dups=%d rejected=%d repaired=%d deferred=%d/%d \
     invalidated=%d evicted=%d time=%.1f/%.1fms"
    s.compile_actions s.plrg_relevant_props s.plrg_relevant_actions
    s.slrg.nodes s.rg.created s.rg.open_left s.rg.expanded s.rg.replay_pruned
    s.rg.ungenerated s.rg.duplicates s.rg.final_replay_rejected
    s.rg.order_repaired s.rg.slrg_deferred s.rg.slrg_saved
    s.invalidated_actions s.evicted_entries s.t_total_ms s.t_search_ms

let pp_phases fmt (r : report) =
  (* Each phase's time beside its characteristic count from [stats];
     gc_minor_kw / gc_major list the four phases in pipeline order:
     compile, plrg, slrg, rg. *)
  let p = r.phases and s = r.stats in
  Format.fprintf fmt
    "compile=%.1fms/%d plrg=%.1fms/%d slrg=%.1fms/%d slrg_cache=%d/%d/%d \
     rg=%.1fms/%d reuse=%d/%d gc_minor_kw=%.0f/%.0f/%.0f/%.0f \
     gc_major=%d/%d/%d/%d"
    p.compile.ms s.compile_actions p.plrg.ms s.plrg_relevant_props p.slrg.ms
    s.slrg.nodes s.slrg.cache_hits s.slrg.suffix_harvested
    s.slrg.bound_promoted p.rg.ms s.rg.created s.invalidated_actions
    s.evicted_entries
    (p.compile.minor_words /. 1000.)
    (p.plrg.minor_words /. 1000.)
    (p.slrg.minor_words /. 1000.)
    (p.rg.minor_words /. 1000.)
    p.compile.major_collections p.plrg.major_collections
    p.slrg.major_collections p.rg.major_collections

(* ------------------------------------------------------------------ *)
(* Session state                                                       *)
(* ------------------------------------------------------------------ *)

type delta =
  | Set_node_resource of { node : int; resource : string; value : float }
  | Set_link_resource of { link : int; resource : string; value : float }
  | Remove_link of { link : int }
  | Fail_node of { node : int }

(* Compiled state, built lazily at the first plan call (so a throwaway
   session reports cold compile timings like the one-shot planner always
   did) and patched incrementally by {!update}. *)
type compiled = {
  mutable pb : Problem.t;
  mutable plrg : Plrg.t;
  mutable oracle : Slrg.t option;
      (** created at the first plan call that survives the
          reachability check, so oracle-construction time lands in that
          request's slrg phase exactly as in a cold run *)
  mutable compile_phase : phase;
      (** pending compile timing to surface in the next report: the cold
          compile (first plan) or the latest recompile; zero-ms once
          reported — that request ran against already-hot state *)
  mutable plrg_phase : phase;
}

type t = {
  mutable topo : Topology.t;
  app : Model.app;
  leveling : Leveling.t;
  config : config;
  telemetry : Telemetry.t;
  metrics : Registry.t;
      (** always-on lifetime metrics: plans served, warm/cold splits,
          per-phase latency histograms, search volume *)
  adjust : (comp:string -> node:int -> float) option;
  mutable state : compiled option;
  mutable pending_invalidated : int;
      (** actions recompiled/dropped by updates since the last plan *)
  mutable pending_evicted : int;
      (** oracle entries evicted by updates since the last plan *)
}

let create ?adjust ?metrics (req : request) =
  {
    topo = req.topo;
    app = req.app;
    leveling = req.leveling;
    config = req.config;
    telemetry = req.telemetry;
    metrics = (match metrics with Some m -> m | None -> Registry.create ());
    adjust;
    state = None;
    pending_invalidated = 0;
    pending_evicted = 0;
  }

let topology t = t.topo
let is_warm t = t.state <> None
let problem t = Option.map (fun st -> st.pb) t.state
let oracle t = Option.bind t.state (fun st -> st.oracle)
let metrics t = t.metrics
let metrics_snapshot t = Registry.snapshot t.metrics

let gc_snap () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections)
let gc_delta (aw, ac) (bw, bc) = (bw -. aw, bc - ac)

(* One pipeline phase: [f] runs inside a telemetry span [name], between
   two GC snapshots taken right after the span opens and right after [f]
   returns.  [attrs] reads the span's end attributes off the result.  The
   span is closed when [f] raises too, and the exception propagates. *)
let run_phase ?(attrs = fun _ -> []) telemetry name f =
  let sp = Telemetry.begin_span telemetry name in
  let gc0 = gc_snap () in
  match f () with
  | exception e ->
      ignore (Telemetry.end_span telemetry sp);
      raise e
  | x ->
      let minor_words, major_collections = gc_delta gc0 (gc_snap ()) in
      let ms = Telemetry.end_span telemetry sp ~attrs:(attrs x) in
      (x, { ms; minor_words; major_collections })

(* Compile + PLRG for the current topology.  Raises
   [Compile.Compile_error] and [Deadline.Expired] to the caller. *)
let build_state t ~deadline =
  let telemetry = t.telemetry in
  let pb, compile_phase =
    run_phase telemetry "compile"
      ~attrs:(fun (pb : Problem.t) ->
        [
          ("actions", Telemetry.Int (Array.length pb.Problem.actions));
          ("props", Telemetry.Int (Prop.count pb.Problem.props));
        ])
      (fun () ->
        Compile.compile ?adjust:t.adjust ~telemetry ~deadline t.topo t.app
          t.leveling)
  in
  Log.info (fun m ->
      m "compiled: %d leveled actions, %d propositions (%d pruned dead)"
        (Array.length pb.Problem.actions)
        (Prop.count pb.Problem.props)
        pb.Problem.pruned_actions);
  Registry.count t.metrics "analysis.pruned_actions" pb.Problem.pruned_actions;
  (* The search clock starts before the PLRG build — search_ms has always
     covered plrg + slrg + rg (Table 2 col 9, right). *)
  let t_search = Timer.start () in
  let plrg, plrg_phase =
    run_phase telemetry "plrg"
      ~attrs:(fun plrg ->
        let props, actions = Plrg.stats plrg in
        [
          ("relevant_props", Telemetry.Int props);
          ("relevant_actions", Telemetry.Int actions);
          ("reachable", Telemetry.Bool (Plrg.goals_reachable plrg));
        ])
      (fun () -> Plrg.build ~deadline pb)
  in
  Log.info (fun m ->
      let props, actions = Plrg.stats plrg in
      m "PLRG: %d relevant propositions, %d relevant actions, goals %s" props
        actions
        (if Plrg.goals_reachable plrg then "reachable" else "UNREACHABLE"));
  ({ pb; plrg; oracle = None; compile_phase; plrg_phase }, t_search)

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

(* Postmortem hook: when the telemetry handle carries a flight recorder
   with a dump path, persist the ring (the last N events, ending with the
   request's counts and the "plan" span's failure attribute) so the
   moments before the failure survive for tools/trace_report.  A path
   that cannot be written costs the dump, never the report. *)
let flight_dump t =
  match Telemetry.flight t.telemetry with
  | None -> ()
  | Some fl -> (
      match Telemetry.Flight.dump_to_path fl with
      | None -> ()
      | Some path ->
          Registry.count t.metrics "session.flight_dumps" 1;
          Log.info (fun m ->
              m "flight recorder: dumped last %d event(s) to %s"
                (Stdlib.min
                   (Telemetry.Flight.recorded fl)
                   (Telemetry.Flight.capacity fl))
                path)
      | exception Sys_error msg ->
          Log.warn (fun m -> m "flight recorder: dump not written: %s" msg))

(* One request's counts, read from its finished report and sent under
   the table's names to the trace (a [Counter] event each, carrying this
   plan's value) and to the registry (whose counters sum them over
   plans).  Rows of a stage the request never reached are zeros that
   measured nothing, left out of both. *)
let record_counts t ~reached (s : stats) =
  List.iter
    (fun c ->
      if c.stage <= reached then begin
        let v = c.get s in
        Telemetry.count t.telemetry c.name v;
        Registry.count t.metrics c.name v
      end)
    counts

(* Lifetime metrics recorded for every plan call, successful or not.
   Phase histograms only take samples from requests that actually ran
   the phase (warm requests report compile/plrg as 0 ms — not a latency
   observation, just absence of work). *)
let record_metrics t ~was_warm ~reached (report : report) =
  let m = t.metrics and s = report.stats in
  Registry.count m "session.plans" 1;
  Registry.count m
    (if Result.is_ok report.result then "session.plans_ok"
     else "session.plans_failed")
    1;
  Registry.count m
    (if was_warm then "session.warm_plans" else "session.cold_plans")
    1;
  Registry.observe_ms m "plan.total_ms" s.t_total_ms;
  Registry.observe_ms m "plan.search_ms" s.t_search_ms;
  let phase_sample name (p : phase) =
    if p.ms > 0. then Registry.observe_ms m name p.ms
  in
  phase_sample "phase.compile_ms" report.phases.compile;
  phase_sample "phase.plrg_ms" report.phases.plrg;
  phase_sample "phase.slrg_ms" report.phases.slrg;
  phase_sample "phase.rg_ms" report.phases.rg;
  if reached = Searched then Registry.count m "rg.searches" 1;
  match report.result with
  | Ok p -> Registry.set_gauge m "plan.last_cost" p.Plan.cost_lb
  | Error _ -> ()

let plan_exn t =
  let config = t.config and telemetry = t.telemetry in
  let was_warm = is_warm t in
  let t_total = Timer.start () in
  let deadline =
    match config.deadline_ms with
    | None -> Deadline.none
    | Some ms -> Deadline.after_ms ms
  in
  let invalidated_actions = t.pending_invalidated
  and evicted_entries = t.pending_evicted in
  t.pending_invalidated <- 0;
  t.pending_evicted <- 0;
  let sp_plan = Telemetry.begin_span telemetry "plan" in
  let finish ?(reached = Requested) ?(phases = empty_phases) result stats =
    let report =
      {
        result;
        phases;
        stats = { stats with invalidated_actions; evicted_entries };
      }
    in
    record_counts t ~reached report.stats;
    let attrs =
      ("ok", Telemetry.Bool (Result.is_ok result))
      ::
      (match result with
      | Ok _ -> []
      | Error r ->
          (* The centrally-formatted failure line rides the trace so
             tools linking only the telemetry reader (trace_report) can
             print it without re-implementing the formatter. *)
          [ ("failure", Telemetry.Str (Format.asprintf "%a" pp_failure r)) ])
    in
    ignore (Telemetry.end_span telemetry sp_plan ~attrs);
    record_metrics t ~was_warm ~reached report;
    report
  in
  let failed reason =
    finish (Error reason)
      { no_stats with t_total_ms = Timer.elapsed_ms t_total }
  in
  match
    if config.validate_spec then
      match Validate.check_diagnostics t.topo t.app with
      | [] -> Ok ()
      | diags ->
          Error
            (String.concat "; "
               (List.map
                  (fun (d : Diagnostic.t) -> d.Diagnostic.loc ^ ": " ^ d.message)
                  diags))
    else Ok ()
  with
  | Error msg -> failed (Invalid_spec msg)
  | Ok () -> (
      match
        match t.state with
        | Some st -> Ok (st, Timer.start ())
        | None -> (
            match build_state t ~deadline with
            | st, t_search ->
                t.state <- Some st;
                Ok (st, t_search)
            | exception Compile.Compile_error msg -> Error (Invalid_spec msg)
            | exception Deadline.Expired phase ->
                Error
                  (Deadline_exceeded { phase; expansions = 0; frontier = None }))
      with
      | Error reason -> failed reason
      | Ok (st, t_search) ->
          let pb = st.pb and plrg = st.plrg in
          let plrg_relevant_props, plrg_relevant_actions = Plrg.stats plrg in
          let stats =
            {
              no_stats with
              compile_actions = Array.length pb.Problem.actions;
              plrg_relevant_props;
              plrg_relevant_actions;
            }
          in
          (* Consume the pending compile/plrg phase timings: they belong
             to this report; later warm requests report them as 0 ms. *)
          let phases =
            {
              empty_phases with
              compile = st.compile_phase;
              plrg = st.plrg_phase;
            }
          in
          st.compile_phase <- no_phase;
          st.plrg_phase <- no_phase;
          if not (Plrg.goals_reachable plrg) then begin
            (* Unreachable, so at least one goal has infinite cost. *)
            let goals = Plrg.unreachable_goals plrg in
            let label = Problem.prop_label pb in
            let chain =
              List.map label (Plrg.support_chain plrg (List.hd goals))
            in
            finish ~reached:Compiled ~phases
              (Error
                 (Unreachable_goal { goals = List.map label goals; chain }))
              {
                stats with
                t_total_ms = Timer.elapsed_ms t_total;
                t_search_ms = Timer.elapsed_ms t_search;
              }
          end
          else begin
            (* Per-request reset: drop every budget-exhausted bound and
               refill the escalation pool (warm == cold hinges on it),
               zero the oracle's counts, and arm the deadline the queries
               poll. *)
            let slrg, slrg_create =
              run_phase telemetry "slrg" (fun () ->
                  let slrg =
                    match st.oracle with
                    | Some o -> o
                    | None ->
                        let o =
                          Slrg.create ~telemetry ~metrics:t.metrics
                            ~query_budget:config.slrg_query_budget pb plrg
                        in
                        st.oracle <- Some o;
                        o
                  in
                  Slrg.begin_request slrg ~deadline;
                  slrg)
            in
            let (result, rg_stats), rg_phase =
              run_phase telemetry "rg"
                ~attrs:(fun (_, (s : Rg.stats)) ->
                  [
                    ("created", Telemetry.Int s.Rg.created);
                    ("expanded", Telemetry.Int s.Rg.expanded);
                  ])
                (fun () ->
                  Rg.search ~max_expansions:config.rg_max_expansions
                    ~telemetry ~deadline pb slrg)
            in
            Log.info (fun m ->
                m
                  "RG: %d nodes created, %d expanded, %d pruned by replay, %d \
                   duplicates, %d final rejections"
                  rg_stats.Rg.created rg_stats.Rg.expanded
                  rg_stats.Rg.replay_pruned rg_stats.Rg.duplicates
                  rg_stats.Rg.final_replay_rejected);
            let stats =
              {
                stats with
                slrg = Slrg.stats slrg;
                rg = rg_stats;
                t_total_ms = Timer.elapsed_ms t_total;
                t_search_ms = Timer.elapsed_ms t_search;
              }
            in
            (* SLRG queries run lazily inside the RG search; their wall
               time and minor words are attributed to the slrg phase and
               are therefore a subset of the rg phase's own bracket.
               Major collections are counted only around the oracle's
               creation: those during the queries stay in the rg phase. *)
            let phases =
              {
                phases with
                slrg =
                  {
                    slrg_create with
                    ms = slrg_create.ms +. stats.slrg.query_ms;
                    minor_words =
                      slrg_create.minor_words +. stats.slrg.minor_words;
                  };
                rg = rg_phase;
              }
            in
            let finish = finish ~reached:Searched ~phases in
            match result with
            | Rg.Solution (tail, metrics, cost_lb) ->
                Log.info (fun m ->
                    m "solution: %d actions, cost bound %g, realized %g"
                      (List.length tail) cost_lb metrics.Replay.realized_cost);
                let plan = { Plan.steps = tail; cost_lb; metrics } in
                let certified =
                  if config.certify then Certifier.run pb plan else Ok ()
                in
                (match certified with
                | Error reason ->
                    Registry.count t.metrics "analysis.certify_failed" 1;
                    finish (Error (Certification_failed reason)) stats
                | Ok () ->
                    if config.certify then
                      Registry.count t.metrics "analysis.certified_plans" 1;
                    finish (Ok plan) stats)
            | Rg.Exhausted -> finish (Error Resource_exhausted) stats
            | Rg.Cutoff { by = `Budget; expansions; frontier } ->
                finish (Error (Search_limit { expansions; frontier })) stats
            | Rg.Cutoff { by = `Deadline; expansions; frontier } ->
                finish
                  (Error
                     (Deadline_exceeded
                        { phase = "rg"; expansions; frontier = Some frontier }))
                  stats
          end)

let plan t =
  match plan_exn t with
  | report ->
      (* The flight recorder holds its peace through ordinary failures
         (invalid specs, provably unreachable goals): the report already
         explains those.  Budget and deadline cutoffs are the cases where
         the trace of the final moments carries information the report
         cannot. *)
      (match report.result with
      | Error (Search_limit _ | Deadline_exceeded _) -> flight_dump t
      | _ -> ());
      report
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (* An escaping exception means some phase died unexpectedly: dump
         the ring and re-raise. *)
      Registry.count t.metrics "session.plans" 1;
      Registry.count t.metrics "session.plans_failed" 1;
      flight_dump t;
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Update                                                              *)
(* ------------------------------------------------------------------ *)

let apply_delta topo = function
  | Set_node_resource { node; resource; value } ->
      Mutate.set_node_resource topo node resource value
  | Set_link_resource { link; resource; value } ->
      Mutate.set_link_resource topo link resource value
  | Remove_link { link } -> Mutate.remove_link topo link
  | Fail_node { node } -> Mutate.fail_node topo node

let update t delta =
  let new_topo = apply_delta t.topo delta in
  t.topo <- new_topo;
  Registry.count t.metrics "session.updates" 1;
  (match t.state with
  | None -> ()  (* nothing compiled yet; the next plan starts cold *)
  | Some st -> (
      let telemetry = t.telemetry in
      match
        run_phase telemetry "compile"
          ~attrs:(fun ((pb : Problem.t), invalidated) ->
            [
              ("actions", Telemetry.Int (Array.length pb.Problem.actions));
              ("invalidated", Telemetry.Int invalidated);
            ])
          (fun () ->
            Compile.recompile ?adjust:t.adjust ~telemetry ~old:st.pb
              new_topo t.app t.leveling)
      with
      | exception Compile.Compile_error _ ->
          (* The mutated spec no longer compiles (e.g. a pre-placed
             component's node lost its resources).  Drop the state; the
             next plan recompiles cold and reports the error exactly as a
             one-shot run would. *)
          t.state <- None
      | (pb, invalidated), compile_phase ->
          let rebuild_plrg () =
            let plrg, plrg_phase =
              run_phase telemetry "plrg" (fun () -> Plrg.build pb)
            in
            st.plrg_phase <- plrg_phase;
            plrg
          in
          let plrg, evicted =
            match Problem.leveled_diff ~old:st.pb pb with
            | Problem.Same ->
                (* The delta stayed inside its levels: the graph phases
                   read nothing that changed, so the PLRG, every oracle
                   entry and the supports rows stay.  They only move to
                   the new problem, which leaves the old one garbage. *)
                let plrg = Plrg.rebind st.plrg pb in
                Option.iter (fun o -> Slrg.rebind o pb plrg) st.oracle;
                (plrg, 0)
            | Problem.Fewer map ->
                (* Actions only went away: an entry whose recorded
                   optimal path survives is still exact. *)
                let plrg = rebuild_plrg () in
                ( plrg,
                  match st.oracle with
                  | Some o -> Slrg.shrink o pb plrg ~map
                  | None -> 0 )
            | Problem.Changed ->
                (* An action was added or altered, or [init] or the goals
                   moved: the next plan creates a fresh oracle, exactly
                   as a cold run does. *)
                let evicted =
                  match st.oracle with Some o -> Slrg.entries o | None -> 0
                in
                st.oracle <- None;
                (rebuild_plrg (), evicted)
          in
          st.pb <- pb;
          st.plrg <- plrg;
          st.compile_phase <- compile_phase;
          t.pending_invalidated <- t.pending_invalidated + invalidated;
          t.pending_evicted <- t.pending_evicted + evicted;
          Log.info (fun m ->
              m "delta applied: %d actions invalidated, %d entries evicted"
                invalidated evicted)));
  t

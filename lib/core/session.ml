(* Long-lived planning sessions: the pipeline engine behind {!Planner}.

   A session holds the compiled state of one (topology, app, leveling)
   triple — the leveled problem, the PLRG, and the SLRG oracle with its
   hash-consing ctx — and serves many plan requests against it.  The
   first request compiles (and reports compile/plrg timings exactly like
   a one-shot run); later requests start from the hot state and skip
   straight to the search.  {!update} applies a topology delta with
   dependency-tracked invalidation: only grounding groups at touched
   sites are recompiled ({!Compile.recompile}) and only oracle entries
   whose sets contain a delta-dirtied proposition are evicted
   ({!Supports.taint} / {!Slrg.refresh}).

   Warm-equals-cold contract: a warm re-plan returns bit-identical
   results (plan actions, cost bounds, failure constructors) to a cold
   [Planner.plan] of the current topology, provided no SLRG root query
   exhausted its budget in the cold run.  Exact solved entries and h_max
   values are path-independent facts about the problem, so carrying them
   is invisible; budget-exhausted {e bounds} are query-order-dependent,
   which is why {!Slrg.begin_request} drops all of them (and refills the
   escalation pool) at every request start.  Under budget exhaustion the
   served bound may differ from the cold one — still admissible, and the
   search still returns a correct plan, but tie-breaking may diverge. *)

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

type config = {
  slrg_query_budget : int;
  rg_max_expansions : int;
  validate_spec : bool;
  explain : bool;
  profile_h : bool;
  deadline_ms : float option;
  certify : bool;
}

let default_config =
  {
    slrg_query_budget = 500;
    rg_max_expansions = 500_000;
    validate_spec = true;
    explain = false;
    profile_h = false;
    deadline_ms = None;
    certify = false;
  }

type failure_reason =
  | Invalid_spec of string
  | Unreachable_goal of string list
  | Resource_exhausted
  | Search_limit of { expansions : int; best_f : float }
  | Deadline_exceeded of {
      phase : string;
      expansions : int;
      best_f : float option;
    }
  | Certification_failed of string

type stats = {
  total_actions : int;
  plrg_props : int;
  plrg_actions : int;
  slrg_nodes : int;
  slrg_queries : int;
  rg_created : int;
  rg_open_left : int;
  rg_expanded : int;
  replay_pruned : int;
  final_replay_rejected : int;
  rg_duplicates : int;
  order_repaired : int;
  slrg_cache_hits : int;
  slrg_suffix_harvested : int;
  slrg_bound_promoted : int;
  slrg_deferred : int;
  slrg_saved : int;
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
  explanation : Explain.t option;
  certificate : Explain.certificate option;
  hquality : Rg.hsample list option;
}

let empty_stats =
  {
    total_actions = 0;
    plrg_props = 0;
    plrg_actions = 0;
    slrg_nodes = 0;
    slrg_queries = 0;
    rg_created = 0;
    rg_open_left = 0;
    rg_expanded = 0;
    replay_pruned = 0;
    final_replay_rejected = 0;
    rg_duplicates = 0;
    order_repaired = 0;
    slrg_cache_hits = 0;
    slrg_suffix_harvested = 0;
    slrg_bound_promoted = 0;
    slrg_deferred = 0;
    slrg_saved = 0;
    invalidated_actions = 0;
    evicted_entries = 0;
    t_total_ms = 0.;
    t_search_ms = 0.;
  }

let no_phase = { ms = 0.; minor_words = 0.; major_collections = 0 }

let empty_phases =
  { compile = no_phase; plrg = no_phase; slrg = no_phase; rg = no_phase }

(* ------------------------------------------------------------------ *)
(* Pretty-printers                                                     *)
(* ------------------------------------------------------------------ *)

let pp_failure fmt = function
  | Invalid_spec msg -> Format.fprintf fmt "invalid specification: %s" msg
  | Unreachable_goal [] ->
      Format.pp_print_string fmt "goal logically unreachable"
  | Unreachable_goal props ->
      Format.fprintf fmt "goal logically unreachable (%s)"
        (String.concat ", " props)
  | Resource_exhausted ->
      Format.pp_print_string fmt "no resource-feasible plan found"
  | Search_limit { expansions; best_f } ->
      Format.fprintf fmt
        "search budget exceeded after %d expansions (best open bound %g)"
        expansions best_f
  | Deadline_exceeded { phase; expansions; best_f } -> (
      Format.fprintf fmt "deadline exceeded in %s phase" phase;
      if expansions > 0 then Format.fprintf fmt " after %d expansions" expansions;
      match best_f with
      | Some f -> Format.fprintf fmt " (best open bound %g)" f
      | None -> ())
  | Certification_failed reason ->
      Format.fprintf fmt "emitted plan failed independent certification: %s"
        reason

let pp_stats fmt s =
  Format.fprintf fmt
    "actions=%d plrg=%d/%d slrg=%d rg=%d/%d expanded=%d pruned=%d dups=%d \
     rejected=%d repaired=%d deferred=%d/%d invalidated=%d evicted=%d \
     time=%.1f/%.1fms"
    s.total_actions s.plrg_props s.plrg_actions s.slrg_nodes s.rg_created
    s.rg_open_left s.rg_expanded s.replay_pruned s.rg_duplicates
    s.final_replay_rejected s.order_repaired s.slrg_deferred s.slrg_saved
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
    p.compile.ms s.total_actions p.plrg.ms s.plrg_props p.slrg.ms s.slrg_nodes
    s.slrg_cache_hits s.slrg_suffix_harvested s.slrg_bound_promoted p.rg.ms
    s.rg_created s.invalidated_actions s.evicted_entries
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
let metrics t = t.metrics
let metrics_snapshot t = Registry.snapshot t.metrics

let gc_snap () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections)
let gc_delta (aw, ac) (bw, bc) = (bw -. aw, bc - ac)

let mk_phase ms (minor_words, major_collections) =
  { ms; minor_words; major_collections }

(* Compile + PLRG for the current topology, with the standard telemetry
   spans and GC brackets.  Raises [Compile.Compile_error] and
   [Deadline.Expired] to the caller. *)
let build_state t ~deadline =
  let telemetry = t.telemetry in
  let sp_compile = Telemetry.begin_span telemetry "compile" in
  let gc_compile0 = gc_snap () in
  let pb =
    try Compile.compile ?adjust:t.adjust ~telemetry ~deadline t.topo t.app
        t.leveling
    with e ->
      ignore (Telemetry.end_span telemetry sp_compile);
      raise e
  in
  let compile_gc = gc_delta gc_compile0 (gc_snap ()) in
  let total_actions = Array.length pb.Problem.actions in
  let compile_ms =
    Telemetry.end_span telemetry sp_compile
      ~attrs:
        [
          ("actions", Telemetry.Int total_actions);
          ("props", Telemetry.Int (Prop.count pb.Problem.props));
        ]
  in
  Log.info (fun m ->
      m "compiled: %d leveled actions, %d propositions (%d pruned dead)"
        total_actions
        (Prop.count pb.Problem.props)
        pb.Problem.pruned_actions);
  Registry.count t.metrics "analysis.pruned_actions" pb.Problem.pruned_actions;
  (* The search clock starts before the PLRG build — search_ms has always
     covered plrg + slrg + rg (Table 2 col 9, right). *)
  let t_search = Timer.start () in
  let sp_plrg = Telemetry.begin_span telemetry "plrg" in
  let gc_plrg0 = gc_snap () in
  let plrg =
    try Plrg.build ~deadline pb
    with e ->
      ignore (Telemetry.end_span telemetry sp_plrg);
      raise e
  in
  let plrg_gc = gc_delta gc_plrg0 (gc_snap ()) in
  let plrg_props, plrg_actions = Plrg.stats plrg in
  let plrg_ms =
    Telemetry.end_span telemetry sp_plrg
      ~attrs:
        [
          ("relevant_props", Telemetry.Int plrg_props);
          ("relevant_actions", Telemetry.Int plrg_actions);
          ("reachable", Telemetry.Bool (Plrg.goals_reachable plrg));
        ]
  in
  Log.info (fun m ->
      m "PLRG: %d relevant propositions, %d relevant actions, goals %s"
        plrg_props plrg_actions
        (if Plrg.goals_reachable plrg then "reachable" else "UNREACHABLE"));
  let st =
    {
      pb;
      plrg;
      oracle = None;
      compile_phase = mk_phase compile_ms compile_gc;
      plrg_phase = mk_phase plrg_ms plrg_gc;
    }
  in
  (st, t_search)

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

(* One request's counts as trace events, read from its finished report;
   where the registry records the same fact it uses the same name.
   [reached] says how far the request got — [`Validated] only,
   [`Compiled] once compiled state (PLRG included) existed, [`Searched]
   once the RG search ran.  Counts of stages it never reached are zeros
   that measured nothing, left out here and in [record_metrics]. *)
let trace_counts telemetry ~reached (r : report) =
  let s = r.stats and count = Telemetry.count telemetry in
  if reached <> `Validated then begin
    count "plrg.relevant_props" s.plrg_props;
    count "plrg.relevant_actions" s.plrg_actions
  end;
  if reached = `Searched then begin
    count "rg.created" s.rg_created;
    count "rg.expanded" s.rg_expanded;
    count "rg.replay_pruned" s.replay_pruned;
    count "rg.final_replay_rejected" s.final_replay_rejected;
    count "rg.duplicates" s.rg_duplicates;
    count "rg.order_repaired" s.order_repaired;
    count "rg.slrg_deferred" s.slrg_deferred;
    count "rg.slrg_saved" s.slrg_saved;
    Telemetry.gauge telemetry "rg.open_left" (float_of_int s.rg_open_left);
    count "slrg.queries" s.slrg_queries;
    count "slrg.cache_hits" s.slrg_cache_hits;
    count "slrg.suffix_harvested" s.slrg_suffix_harvested;
    count "slrg.bound_promoted" s.slrg_bound_promoted
  end;
  Option.iter
    (fun samples ->
      let n = List.length samples in
      count "hq.path_nodes" n;
      count "hq.wasted_expansions" (Stdlib.max 0 (s.rg_expanded - n)))
    r.hquality

(* Lifetime metrics recorded for every plan call, successful or not.
   Phase histograms only take samples from requests that actually ran
   the phase (warm requests report compile/plrg as 0 ms — not a latency
   observation, just absence of work), and the search counts only come
   from requests whose RG ran. *)
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
  Registry.count m "session.invalidated_actions" s.invalidated_actions;
  Registry.count m "session.evicted_entries" s.evicted_entries;
  if reached = `Searched then begin
    Registry.count m "rg.searches" 1;
    Registry.count m "rg.created" s.rg_created;
    Registry.count m "rg.expanded" s.rg_expanded;
    Registry.count m "rg.duplicates" s.rg_duplicates;
    Registry.set_gauge m "rg.open_left" (float_of_int s.rg_open_left);
    Registry.count m "slrg.queries" s.slrg_queries;
    Registry.count m "slrg.cache_hits" s.slrg_cache_hits
  end;
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
  let finish ?(reached = `Validated) ?(phases = empty_phases) ?explanation
      ?certificate ?hquality result stats =
    let report =
      {
        result;
        phases;
        stats = { stats with invalidated_actions; evicted_entries };
        explanation;
        certificate;
        hquality;
      }
    in
    trace_counts telemetry ~reached report;
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
      { empty_stats with t_total_ms = Timer.elapsed_ms t_total }
  in
  match
    if config.validate_spec then
      match Validate.check t.topo t.app with
      | [] -> Ok ()
      | issues ->
          Error
            (String.concat "; "
               (List.map
                  (fun i -> Format.asprintf "%a" Validate.pp_issue i)
                  issues))
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
                  (Deadline_exceeded { phase; expansions = 0; best_f = None }))
      with
      | Error reason -> failed reason
      | Ok (st, t_search) ->
          let pb = st.pb and plrg = st.plrg in
          let plrg_props, plrg_actions = Plrg.stats plrg in
          let stats =
            {
              empty_stats with
              total_actions = Array.length pb.Problem.actions;
              plrg_props;
              plrg_actions;
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
            let unreachable =
              Plrg.unreachable_goals plrg |> List.map (Problem.prop_label pb)
            in
            let certificate =
              if config.explain then Explain.unreachable_certificate pb plrg
              else None
            in
            finish ~reached:`Compiled ~phases ?certificate
              (Error (Unreachable_goal unreachable))
              {
                stats with
                t_total_ms = Timer.elapsed_ms t_total;
                t_search_ms = Timer.elapsed_ms t_search;
              }
          end
          else begin
            let sp_slrg = Telemetry.begin_span telemetry "slrg" in
            let gc_slrg0 = gc_snap () in
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
            (* Per-request reset: drop every budget-exhausted bound and
               refill the escalation pool (warm == cold hinges on it),
               zero the oracle's counts, and arm the deadline the queries
               poll. *)
            Slrg.begin_request slrg ~deadline;
            let slrg_create_minor, slrg_create_major =
              gc_delta gc_slrg0 (gc_snap ())
            in
            let slrg_create_ms = Telemetry.end_span telemetry sp_slrg in
            let sp_rg = Telemetry.begin_span telemetry "rg" in
            let gc_rg0 = gc_snap () in
            let profile = if config.profile_h then Some (ref []) else None in
            let result, rg_stats =
              Rg.search ~max_expansions:config.rg_max_expansions ?profile
                ~telemetry ~deadline pb plrg slrg
            in
            let rg_gc = gc_delta gc_rg0 (gc_snap ()) in
            let rg_ms =
              Telemetry.end_span telemetry sp_rg
                ~attrs:
                  [
                    ("created", Telemetry.Int rg_stats.Rg.created);
                    ("expanded", Telemetry.Int rg_stats.Rg.expanded);
                  ]
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
                slrg_nodes = Slrg.nodes_generated slrg;
                slrg_queries = Slrg.queries slrg;
                slrg_cache_hits = Slrg.cache_hits slrg;
                slrg_suffix_harvested = Slrg.suffix_harvested slrg;
                slrg_bound_promoted = Slrg.bound_promoted slrg;
                rg_created = rg_stats.Rg.created;
                rg_open_left = rg_stats.Rg.open_left;
                rg_expanded = rg_stats.Rg.expanded;
                replay_pruned = rg_stats.Rg.replay_pruned;
                final_replay_rejected = rg_stats.Rg.final_replay_rejected;
                rg_duplicates = rg_stats.Rg.duplicates;
                order_repaired = rg_stats.Rg.order_repaired;
                slrg_deferred = rg_stats.Rg.slrg_deferred;
                slrg_saved = rg_stats.Rg.slrg_saved;
                t_total_ms = Timer.elapsed_ms t_total;
                t_search_ms = Timer.elapsed_ms t_search;
              }
            in
            (* SLRG queries run lazily inside the RG search; their wall
               time and GC footprint are attributed to the slrg phase and
               are therefore a subset of the rg phase's own bracket. *)
            let phases =
              {
                phases with
                slrg =
                  mk_phase
                    (slrg_create_ms +. Slrg.query_ms slrg)
                    ( slrg_create_minor +. Slrg.gc_minor_words slrg,
                      slrg_create_major + Slrg.gc_major_collections slrg );
                rg = mk_phase rg_ms rg_gc;
              }
            in
            let hquality = Option.map (fun samples -> !samples) profile in
            let finish = finish ~reached:`Searched ~phases ?hquality in
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
                    let explanation =
                      if config.explain then
                        match Explain.explain pb plan with
                        | Ok e -> Some e
                        | Error _ -> None
                      else None
                    in
                    finish ?explanation (Ok plan) stats)
            | Rg.Exhausted -> finish (Error Resource_exhausted) stats
            | Rg.Budget_exceeded { expansions; best_f; frontier } ->
                let certificate =
                  match frontier with
                  | Some fr when config.explain ->
                      Some (Explain.frontier_certificate pb ~best_f fr)
                  | _ -> None
                in
                finish ?certificate
                  (Error (Search_limit { expansions; best_f }))
                  stats
            | Rg.Deadline_reached { expansions; best_f; frontier } ->
                let certificate =
                  match frontier with
                  | Some fr when config.explain ->
                      Some (Explain.frontier_certificate pb ~best_f fr)
                  | _ -> None
                in
                finish ?certificate
                  (Error
                     (Deadline_exceeded
                        { phase = "rg"; expansions; best_f = Some best_f }))
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

(* Touched sites of a delta, in terms the invalidation machinery wants:
   node indices and link ids.  Link ids are stable across every Mutate
   operation, so one touched set speaks for both the pre- and post-delta
   problem — a tombstoned link's id still names it in the old problem's
   actions, and never occurs in the new one. *)
let touched_of old_topo = function
  | Set_node_resource { node; _ } -> ([ node ], [])
  | Set_link_resource { link; _ } -> ([], [ link ])
  | Remove_link { link } -> ([], [ link ])
  | Fail_node { node } ->
      let incident =
        Array.to_list (Topology.links old_topo)
        |> List.filter_map (fun (l : Topology.link) ->
               let a, b = l.Topology.ends in
               if a = node || b = node then Some l.Topology.link_id else None)
      in
      ([ node ], incident)

let update t delta =
  let old_topo = t.topo in
  let new_topo = apply_delta old_topo delta in
  t.topo <- new_topo;
  Registry.count t.metrics "session.updates" 1;
  (match t.state with
  | None -> ()  (* nothing compiled yet; the next plan starts cold *)
  | Some st -> (
      let touched_nodes, touched_links = touched_of old_topo delta in
      let node_touched n = List.mem n touched_nodes in
      let link_touched l = List.mem l touched_links in
      let telemetry = t.telemetry in
      match
        let sp_compile = Telemetry.begin_span telemetry "compile" in
        let gc_compile0 = gc_snap () in
        match
          Compile.recompile ?adjust:t.adjust ~telemetry ~old:st.pb
            ~node_touched ~link_touched new_topo t.app t.leveling
        with
        | exception e ->
            ignore (Telemetry.end_span telemetry sp_compile);
            raise e
        | pb, invalidated ->
            let compile_gc = gc_delta gc_compile0 (gc_snap ()) in
            let compile_ms =
              Telemetry.end_span telemetry sp_compile
                ~attrs:
                  [
                    ("actions", Telemetry.Int (Array.length pb.Problem.actions));
                    ("invalidated", Telemetry.Int invalidated);
                  ]
            in
            (pb, invalidated, compile_ms, compile_gc)
      with
      | exception Compile.Compile_error _ ->
          (* The mutated spec no longer compiles (e.g. a pre-placed
             component's node lost its resources).  Drop the state; the
             next plan recompiles cold and reports the error exactly as a
             one-shot run would. *)
          t.state <- None
      | pb, invalidated, compile_ms, compile_gc ->
          if st.pb.Problem.init <> pb.Problem.init then
            (* A changed initial section changes set canonicalization
               itself: every interned handle is suspect.  Full flush. *)
            t.state <- None
          else begin
            let sp_plrg = Telemetry.begin_span telemetry "plrg" in
            let gc_plrg0 = gc_snap () in
            let plrg = Plrg.build pb in
            let plrg_gc = gc_delta gc_plrg0 (gc_snap ()) in
            let plrg_ms = Telemetry.end_span telemetry sp_plrg in
            (* Taint on both sides of the delta: the old problem catches
               chains through removed actions, the new one chains through
               novel actions at the touched sites.  Stable ids mean the
               same touched predicates serve both. *)
            let _, dirty_old =
              Supports.taint st.pb ~node_touched ~link_touched
            in
            let _, dirty_new =
              Supports.taint pb ~node_touched ~link_touched
            in
            let dirty p = dirty_old.(p) || dirty_new.(p) in
            let evicted =
              match st.oracle with
              | Some o -> Slrg.refresh o pb plrg ~dirty
              | None -> 0
            in
            st.pb <- pb;
            st.plrg <- plrg;
            st.compile_phase <- mk_phase compile_ms compile_gc;
            st.plrg_phase <- mk_phase plrg_ms plrg_gc;
            t.pending_invalidated <- t.pending_invalidated + invalidated;
            t.pending_evicted <- t.pending_evicted + evicted;
            Log.info (fun m ->
                m "delta applied: %d actions invalidated, %d entries evicted"
                  invalidated evicted)
          end));
  t

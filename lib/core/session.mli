(** Long-lived planning sessions: cross-request reuse of compiled state,
    delta invalidation, and deadline-bounded search.

    A session holds everything a plan request needs that survives the
    request — the leveled problem, the PLRG, and the SLRG cost oracle
    with its hash-consed proposition-set interner — and serves many
    {!plan} calls against it.  The first call compiles (its report
    carries cold compile/plrg timings, exactly like a one-shot run);
    subsequent calls for the same (topology, app, leveling) skip
    compilation entirely and start with a hot oracle.  {!update} applies
    a {!delta} with dependency-tracked invalidation: only grounding
    groups at the touched nodes/links are recompiled
    ({!Compile.recompile}) and only oracle entries whose proposition sets
    cross the delta's taint cone are evicted ({!Supports.taint},
    {!Slrg.refresh}); the work done is surfaced as the
    [invalidated_actions] / [evicted_entries] counts of the next
    report.

    {b Warm == cold.}  A warm re-plan agrees with a cold [Planner.plan]
    of the session's current topology on everything that matters: the
    result constructor, the optimal cost bound, and (on budget cutoffs)
    the admissible best-f evidence.  Exact oracle entries are
    path-independent, and the per-request reset ({!Slrg.begin_request})
    drops everything that is not — budget-exhausted bounds and the
    escalation pool — so carried cache state cannot steer the search.
    Two kinds of noise are tolerated, the oracle provisos {!Rg.search}
    documents: a cold run whose root queries exhaust their budget
    records order-dependent bounds a warm run may not reproduce, and
    exact costs of sets with several equally-optimal support paths are
    cached from whichever query harvested them first, so warm and cold
    h-values can differ in the last ulp and swap f-tied frontier nodes
    (possibly returning a different equally-cheap optimum).  Timing
    fields and the oracle's counts (a warm oracle answers more queries
    from its cache) naturally differ.

    {b Deadlines.}  [config.deadline_ms] arms a monotonic
    ({!Sekitei_util.Timer}) cancellation token for each request, polled
    per grounding group in compilation, per relaxation in the PLRG, and
    per expansion in the SLRG/RG searches.  An expired request returns
    [Error (Deadline_exceeded _)] carrying the phase that gave up and —
    when the RG frontier was reached — the same admissible best-[f]
    lower bound a [Search_limit] failure reports.

    This module is the engine; {!Planner} includes it and adds the
    one-shot [Planner.plan] / [Planner.plan_batch] over throwaway
    sessions. *)

type config = {
  slrg_query_budget : int;  (** set-node budget per SLRG query *)
  rg_max_expansions : int;
  validate_spec : bool;  (** run {!Sekitei_spec.Validate} first *)
  explain : bool;
      (** derive a {!Explain.t} for solved runs and a
          {!Explain.certificate} for failed ones (default [false];
          costs one extra from-init replay of the final plan) *)
  profile_h : bool;
      (** record heuristic-quality samples ({!Rg.hsample}) along the
          solution path (default [false]; adds a PLRG sweep per queued
          RG node, so leave off when benchmarking) *)
  deadline_ms : float option;
      (** per-request wall-clock budget (monotonic {!Sekitei_util.Timer}
          time, polled cooperatively by every phase); [None] (default)
          never expires *)
  certify : bool;
      (** re-validate every emitted plan through the installed
          {!Certifier} hook (default [false]; a no-op until an
          implementation is installed — see
          [Sekitei_analysis.Certify.install]).  A rejected plan turns
          the request into [Error (Certification_failed _)] — the
          fail-loud mode for debug and test builds. *)
}

val default_config : config

type failure_reason =
  | Invalid_spec of string
  | Unreachable_goal of string list
      (** the PLRG proves the goals logically unreachable; carries the
          labels of the goal propositions with infinite PLRG cost *)
  | Resource_exhausted
      (** goals logically reachable, but every candidate tail violates
          resources — the scenario-A failure mode *)
  | Search_limit of { expansions : int; best_f : float }
      (** RG expansion budget exceeded; [best_f] is an admissible lower
          bound on the cost of any plan a longer search could find *)
  | Deadline_exceeded of {
      phase : string;  (** ["compile"], ["plrg"], or ["rg"] *)
      expansions : int;  (** RG expansions completed (0 outside the RG) *)
      best_f : float option;
          (** admissible lower bound when the RG frontier was reached —
              the same evidence a {!Search_limit} carries *)
    }  (** the request's [config.deadline_ms] expired first *)
  | Certification_failed of string
      (** [config.certify] was set and the independent certifier
          rejected the emitted plan — always a planner bug; carries the
          rendered diagnostic *)

(** One request's counts.  Every other view of a count — {!pp_phases},
    the trace's [Counter] events, the registry's search counters — is
    read from this record.  A count of a stage the request never reached
    is 0. *)
type stats = {
  total_actions : int;  (** Table 2 col 5: leveled actions after pruning *)
  plrg_props : int;  (** Table 2 col 6 (left) *)
  plrg_actions : int;  (** Table 2 col 6 (right) *)
  slrg_nodes : int;  (** Table 2 col 7 — this request's share *)
  slrg_queries : int;
      (** SLRG queries that ran an A* (the rest were {!slrg_cache_hits}) *)
  rg_created : int;  (** Table 2 col 8 (left) *)
  rg_open_left : int;  (** Table 2 col 8 (right) *)
  rg_expanded : int;
  replay_pruned : int;
  final_replay_rejected : int;
  rg_duplicates : int;
      (** RG nodes pruned by duplicate detection (pending set re-derived
          at an equal-or-worse g) *)
  order_repaired : int;
      (** candidate tails recovered by the RG backtracking re-sequencer
          after failing from-init validation *)
  slrg_cache_hits : int;
      (** SLRG queries answered from the solved or capped-bound caches
          without running an A* *)
  slrg_suffix_harvested : int;
      (** exact SLRG cache entries recorded by suffix-cost harvesting
          beyond the queried roots themselves *)
  slrg_bound_promoted : int;
      (** budget-exhausted SLRG bounds later replaced by exact entries *)
  slrg_deferred : int;
      (** RG nodes queued with the cheap PLRG bound instead of an
          up-front SLRG query *)
  slrg_saved : int;
      (** deferred nodes never refined — SLRG oracle queries the search
          skipped entirely *)
  invalidated_actions : int;
      (** actions the {!update}s since the previous plan call could not
          reuse (recompiled or dropped); 0 on cold runs *)
  evicted_entries : int;
      (** oracle cache entries (solved + h_max) evicted by those
          updates; 0 on cold runs *)
  t_total_ms : float;  (** Table 2 col 9 (left) *)
  t_search_ms : float;  (** Table 2 col 9 (right): graph phases only *)
}

(** Everything a planning run needs.  Build with {!request}; override
    fields with record update syntax ([{ req with config = ... }]). *)
type request = {
  topo : Sekitei_network.Topology.t;
  app : Sekitei_spec.Model.app;
  leveling : Sekitei_spec.Leveling.t;
  config : config;
  telemetry : Sekitei_telemetry.Telemetry.t;
}

(** Smart constructor: [config] defaults to {!default_config}, [telemetry]
    to {!Sekitei_telemetry.Telemetry.null} (zero-overhead), [leveling] to
    the empty (greedy) leveling. *)
val request :
  ?config:config ->
  ?telemetry:Sekitei_telemetry.Telemetry.t ->
  ?leveling:Sekitei_spec.Leveling.t ->
  Sekitei_network.Topology.t ->
  Sekitei_spec.Model.app ->
  request

(** One phase of the pipeline: wall time and the phase's GC footprint
    ([Gc.quick_stat] deltas bracketing the phase — minor-heap words
    allocated and major collections triggered).  Rising allocation
    pressure is the usual early warning when a phase's wall time
    regresses.  On a warm request the compile and plrg phases report
    zeros (the work was done by an earlier request or update).  A
    phase's counts live in {!stats}. *)
type phase = { ms : float; minor_words : float; major_collections : int }

type phases = {
  compile : phase;
  plrg : phase;
  slrg : phase;
      (** oracle construction (first request only) plus the footprint of
          its lazy queries, which run {e inside} the RG search (so the
          slrg phase overlaps the rg one) *)
  rg : phase;
}

type report = {
  result : (Plan.t, failure_reason) Stdlib.result;
  phases : phases;
      (** per-phase timings are measured monotonically even with the null
          telemetry; phases not reached report zeros *)
  stats : stats;
  explanation : Explain.t option;
      (** per-action cost/level/slack account; [Some] iff
          [config.explain] and the run solved *)
  certificate : Explain.certificate option;
      (** unsolvability evidence; [Some] iff [config.explain] and the
          run failed with {!Unreachable_goal}, {!Search_limit}, or an
          in-search {!Deadline_exceeded} *)
  hquality : Rg.hsample list option;
      (** solution-path heuristic samples, root first; [Some] iff
          [config.profile_h] (empty list when no solution was found) —
          analyze with [Sekitei_harness.Hquality] *)
}

(** A topology perturbation, mirroring {!Sekitei_network.Mutate}.  Node
    and link ids are {e stable}: [Remove_link] and [Fail_node] tombstone
    the affected link ids and never renumber survivors, so an id held
    from before any update keeps denoting the same physical link.  A
    delta naming a tombstoned link raises
    {!Sekitei_network.Topology.Stale_link}; one naming a never-issued id
    raises [Invalid_argument] (see {!update}). *)
type delta =
  | Set_node_resource of { node : int; resource : string; value : float }
  | Set_link_resource of { link : int; resource : string; value : float }
  | Remove_link of { link : int }
  | Fail_node of { node : int }

type t

(** [create req] opens a session on the request's (topology, app,
    leveling, config, telemetry).  Nothing is compiled until the first
    {!plan} call.  [adjust] (per-placement cost adjustments, see
    {!Compile.compile}) is fixed for the session's lifetime —
    incremental recompilation reuses grounded actions, which bake the
    adjustment into their cost bounds.

    [metrics] is the always-on registry the session records lifetime
    metrics into; by default each session owns a private one.  Pass a
    shared registry to aggregate several sessions (the batch planner
    does — its per-domain shards keep workers contention-free). *)
val create :
  ?adjust:(comp:string -> node:int -> float) ->
  ?metrics:Sekitei_telemetry.Registry.t ->
  request ->
  t

(** The session's current topology (reflecting every {!update} so far). *)
val topology : t -> Sekitei_network.Topology.t

(** Whether compiled state is resident, i.e. the next {!plan} skips the
    compile and plrg phases.  False before the first plan and after an
    {!update} had to flush. *)
val is_warm : t -> bool

(** The compiled problem the session plans against; [None] exactly when
    {!is_warm} is false.  A plan printed or audited against it matches
    the one the session emitted, with no second compile. *)
val problem : t -> Problem.t option

(** The session's always-on metric registry.  Every {!plan} records
    lifetime counters (["session.plans"], [_ok]/[_failed], warm/cold
    splits, invalidation work), per-phase latency histograms
    (["phase.compile_ms"] ... ["phase.rg_ms"], ["plan.total_ms"],
    ["plan.search_ms"]), and the ["plan.last_cost"] gauge.  A plan whose
    RG search ran also adds its search counts from the report
    (["rg.searches"], ["rg.created"], ["rg.expanded"],
    ["rg.duplicates"], ["slrg.queries"], ["slrg.cache_hits"]) and the
    ["rg.open_left"] gauge; the SLRG oracle records each query's latency
    in ["slrg.query_ms"].  {!update} counts ["session.updates"].  Render
    a snapshot with {!Sekitei_telemetry.Export}. *)
val metrics : t -> Sekitei_telemetry.Registry.t

(** [Registry.snapshot (metrics t)]. *)
val metrics_snapshot : t -> Sekitei_telemetry.Registry.snapshot

(** Serve one plan request from the session state, compiling it first if
    this is the first call (or the state was flushed).  Emits the same
    telemetry span tree as the one-shot planner; on failure the ["plan"]
    span's end event additionally carries a ["failure"] string attribute
    with the {!pp_failure}-rendered reason.  Just before that end event
    the report's counts go out as [Counter] events, one per count and
    plan, under the registry's names where the two share a fact: the
    ["plrg.*"] counts once compiled state exists, and the ["rg.*"],
    ["slrg.*"] and (under [config.profile_h]) ["hq.*"] counts when the
    RG search ran.

    When the request's telemetry handle arms a
    {!Sekitei_telemetry.Telemetry.Flight} recorder with a dump path, a
    [Search_limit] or [Deadline_exceeded] failure — or an exception
    escaping a phase — dumps the ring to that path before returning, so
    the dump ends with the request's counts and the failure evidence.  A
    dump that cannot be written is logged as a warning; the report is
    returned all the same. *)
val plan : t -> report

(** [update t delta] mutates the session's topology and incrementally
    revalidates the compiled state: untouched grounding groups are
    copied, touched ones recompiled, the PLRG is rebuilt, and oracle
    entries inside the delta's taint cone are evicted.  The invalidation
    work is accumulated into the next {!plan} report's
    [invalidated_actions] / [evicted_entries] counters.  Falls back to a
    full flush (next plan compiles cold) when the delta changes the
    initial proposition section — set canonicalization itself shifts —
    or when the mutated spec no longer compiles.  Returns [t] (the
    session is updated in place).

    A bad delta is rejected {e before} anything mutates:
    {!Sekitei_network.Topology.Stale_link} for a link id tombstoned by
    an earlier update, [Invalid_argument] for node/link ids that never
    existed and for a NaN or infinite resource value.  The session's
    topology and compiled state are untouched in each case. *)
val update : t -> delta -> t

(** Render a failure reason for humans — the single formatter behind the
    CLI's "No plan:" line and the ["failure"] span attribute
    trace_report surfaces. *)
val pp_failure : Format.formatter -> failure_reason -> unit
val pp_stats : Format.formatter -> stats -> unit

(** The report's phase timings, each beside its count from {!stats}. *)
val pp_phases : Format.formatter -> report -> unit

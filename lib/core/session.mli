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
    groups at the nodes/links whose capacities changed are recompiled
    ({!Compile.recompile}); the work done is surfaced as the
    [invalidated_actions] / [evicted_entries] counts of the next
    report.

    {b Reuse rule.}  {!Problem.leveled_diff} compares the recompiled
    problem with the old one on everything the PLRG, the SLRG oracle and
    the {!Supports} rows read, and the update takes one of three paths.

    - [Same], the usual outcome of a capacity change that crosses no
      level cutpoint: the update keeps the PLRG, every oracle entry and
      every supports row, and only points them at the new problem, whose
      capacities and checked levels replay reads; the next report counts
      0 evicted entries ({!Slrg.rebind}).
    - [Fewer], when actions were only taken away (a removed link, a
      failed node, a capacity cut below a cutpoint): the PLRG is
      rebuilt, and an oracle entry stays exactly when the optimal path
      its solve recorded, witness by witness, still exists in the new
      problem; h_max memo entries go where the new PLRG changed one of
      their propositions' costs ({!Slrg.shrink}).
    - [Changed], when an action was added or altered, or the initial
      section or the goals moved: the update keeps the recompiled
      problem, rebuilds the PLRG and drops the oracle, counting every
      solved and h_max entry it held as evicted; the next plan creates a
      fresh oracle, exactly as a cold run does.

    On the first two paths each kept solved entry is the exact cost of
    its set in the new problem, and each kept witness names an action of
    the new problem.

    {b Warm == cold.}  A warm re-plan agrees with a cold [Planner.plan]
    of the session's current topology on everything that matters: the
    result constructor, the optimal cost bound, and (on budget cutoffs)
    the admissible best-f frontier evidence.  This holds after an update
    on any of the three paths.  After [Changed] the re-plan is a cold
    search of a problem identical to a cold compile's, so it agrees
    exactly, plan steps and search counts included.  On the other two
    paths every solved entry kept is exact for the new problem — on
    [Fewer] because removing actions can only raise costs, so a
    surviving witness path still attains the old one — and every kept
    h_max entry is the new PLRG's, while the per-request reset
    ({!Slrg.begin_request}) drops everything that is not
    path-independent — budget-exhausted bounds and the escalation pool —
    so carried cache state cannot steer the search.
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
    when the RG frontier was reached — the same {!Rg.frontier} evidence
    a [Search_limit] failure carries.

    {b Failures carry their evidence.}  Each [failure_reason] holds what
    proves it, already rendered as labels: the unreachable goal's
    support chain, or the best-f frontier of a cut-off search.  Nothing
    needs the compiled problem to read it back, and no switch turns it
    on.

    This module is the engine; {!Planner} includes it and adds the
    one-shot [Planner.plan] / [Planner.plan_batch] over throwaway
    sessions. *)

type config = {
  slrg_query_budget : int;  (** set-node budget per SLRG query *)
  rg_max_expansions : int;
  validate_spec : bool;  (** run {!Sekitei_spec.Validate} first *)
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
  | Unreachable_goal of {
      goals : string list;
          (** labels of the goal propositions with infinite PLRG cost *)
      chain : string list;
          (** {!Plrg.support_chain} of the first of them, as labels: from
              that goal down to the proposition the PLRG pruned *)
    }  (** the PLRG proves the goals logically unreachable *)
  | Resource_exhausted
      (** goals logically reachable, but every candidate tail violates
          resources — the scenario-A failure mode *)
  | Search_limit of { expansions : int; frontier : Rg.frontier }
      (** RG expansion budget exceeded; [frontier.best_f] is an
          admissible lower bound on the cost of any plan a longer search
          could find *)
  | Deadline_exceeded of {
      phase : string;  (** ["compile"], ["plrg"], or ["rg"] *)
      expansions : int;  (** RG expansions completed (0 outside the RG) *)
      frontier : Rg.frontier option;
          (** [Some] when the RG frontier was reached — the same
              evidence a {!Search_limit} carries *)
    }  (** the request's [config.deadline_ms] expired first *)
  | Certification_failed of string
      (** [config.certify] was set and the independent certifier
          rejected the emitted plan — always a planner bug; carries the
          rendered diagnostic *)

(** One request's counts.  Every other view of a count — {!pp_phases},
    the trace's [Counter] events, the registry's counters, the bench
    record — is read from this record, through {!counts} where it is
    named.  The oracle's and the search's counts are their own records,
    held as they are.  A count of a stage the request never reached
    is 0. *)
type stats = {
  compile_actions : int;  (** Table 2 col 5: leveled actions after pruning *)
  plrg_relevant_props : int;  (** Table 2 col 6 (left) *)
  plrg_relevant_actions : int;  (** Table 2 col 6 (right) *)
  slrg : Slrg.stats;
      (** the oracle's counts and query time for this request; [nodes]
          is Table 2 col 7 *)
  rg : Rg.stats;
      (** [created] / [open_left] are Table 2 col 8, counting generated
          nodes: a child whose f is never popped is not generated
          ([ungenerated]) *)
  invalidated_actions : int;
      (** actions the {!update}s since the previous plan call could not
          reuse (recompiled or dropped); 0 on cold runs *)
  evicted_entries : int;
      (** oracle cache entries (solved + h_max) evicted by those
          updates; 0 on cold runs *)
  t_total_ms : float;  (** Table 2 col 9 (left) *)
  t_search_ms : float;  (** Table 2 col 9 (right): graph phases only *)
}

(** How far a request got: every request is [Requested]; [Compiled]
    once compiled state (the PLRG included) existed; [Searched] once the
    RG search ran. *)
type stage = Requested | Compiled | Searched

(** A report count: its name, the stage a request must reach for the
    count to measure anything, and where {!stats} holds it. *)
type count = { name : string; stage : stage; get : stats -> int }

(** Every report count, declared once; the single place a count is
    named.  Each {!plan} sends each row whose stage the request reached
    to the trace, as a [Counter] event carrying that plan's value, and
    to the registry, whose counter of the same name sums it over plans;
    a row of a stage not reached goes to neither.
    The bench record's JSON key for a row is its name through
    {!Sekitei_telemetry.Export.sanitize} (["rg.created"] is
    [rg_created]).  Adding a count means adding its field to {!stats},
    or to the {!Rg.stats} or {!Slrg.stats} it holds, and one row
    here. *)
val counts : count list

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
      (** oracle construction (first request only) plus the time and
          minor words of its lazy queries ([query_ms] and [minor_words]
          of the report's [stats.slrg]), which run {e inside} the RG
          search (so the slrg phase overlaps the rg one).  Its
          [major_collections] count only the oracle's construction:
          collections during the lazy queries are counted in the rg
          phase, which contains them. *)
  rg : phase;
}

type report = {
  result : (Plan.t, failure_reason) Stdlib.result;
  phases : phases;
      (** per-phase timings are measured monotonically even with the null
          telemetry; phases not reached report zeros *)
  stats : stats;
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
    shared registry to aggregate several sessions, as the bench does for
    the runs of one scenario. *)
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
    {!is_warm} is false.  A plan printed, audited, explained or measured
    for heuristic quality against it matches the one the session
    emitted, with no second compile. *)
val problem : t -> Problem.t option

(** The session's SLRG oracle over {!problem}, [None] until a plan call
    created it and again after an {!update} dropped it.  Read it, do not
    query it: a query fills caches the next plan would otherwise fill
    itself, which changes that plan's counts.  For tests and diagnostics
    of what {!update} keeps. *)
val oracle : t -> Slrg.t option

(** The session's always-on metric registry.  Every {!plan} records
    lifetime counters (["session.plans"], [_ok]/[_failed], warm/cold
    splits), per-phase latency histograms (["phase.compile_ms"] ...
    ["phase.rg_ms"], ["plan.total_ms"], ["plan.search_ms"]), the
    ["plan.last_cost"] gauge, and the report's counts under the names
    of {!counts}, each from the stage its row names on; a plan whose RG
    search ran also counts ["rg.searches"].  The SLRG oracle records each
    query's latency in ["slrg.query_ms"].  {!update} counts
    ["session.updates"].  Render a snapshot with
    {!Sekitei_telemetry.Export}. *)
val metrics : t -> Sekitei_telemetry.Registry.t

(** [Registry.snapshot (metrics t)]. *)
val metrics_snapshot : t -> Sekitei_telemetry.Registry.snapshot

(** Serve one plan request from the session state, compiling it first if
    this is the first call (or the state was flushed).  Emits the same
    telemetry span tree as the one-shot planner; on failure the ["plan"]
    span's end event additionally carries a ["failure"] string attribute
    with the {!pp_failure}-rendered reason.  Just before that end event
    the report's counts go out as [Counter] events, one per {!counts}
    row whose stage the request reached, under the registry's names.

    When the request's telemetry handle arms a
    {!Sekitei_telemetry.Telemetry.Flight} recorder with a dump path, a
    [Search_limit] or [Deadline_exceeded] failure — or an exception
    escaping a phase — dumps the ring to that path before returning, so
    the dump ends with the request's counts and the failure evidence.  A
    dump that cannot be written is logged as a warning; the report is
    returned all the same. *)
val plan : t -> report

(** [update t delta] mutates the session's topology and incrementally
    revalidates the compiled state: grounding groups whose site kept its
    capacities are copied and the others recompiled.
    {!Problem.leveled_diff} picks the path (the reuse rule above): on
    [Same] the PLRG, the oracle's entries and the supports rows are all
    kept; on [Fewer] the PLRG is rebuilt and the entries whose witness
    path survives are kept; on [Changed] the PLRG is rebuilt and the
    oracle dropped.  The
    invalidation work is accumulated into the next {!plan} report's
    [invalidated_actions] / [evicted_entries] counters.  Falls back to a
    full flush (next plan compiles cold) only when the mutated spec no
    longer compiles.  Returns [t] (the session is updated in place).

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

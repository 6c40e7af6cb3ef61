(** The planner: the {!Session} engine plus its one-shot entry points.

    The pipeline — validation, compile/leveling, PLRG, SLRG oracle, RG
    search with optimistic-map replay, certification — lives in
    {!Session}, whose types, constructors and printers this module
    includes unchanged.  On top it adds {!plan} over one request and
    {!plan_batch} over many.  [plan (request topo app ~leveling)] is the
    modified Sekitei algorithm of the paper; omitting [~leveling] runs
    the trivial leveling (every variable one [0, inf) level), which
    degenerates to the original greedy Sekitei (Table 1, scenario A).

    {!plan} is a thin wrapper over a throwaway session, so the one-shot
    and long-lived paths cannot drift apart.  Repeated or perturbed
    queries should keep a {!Session.t} instead: it holds the compiled
    problem and the SLRG oracle hot across requests and applies topology
    deltas with dependency-tracked invalidation. *)

include module type of struct
  include Session
end
with type t := Session.t

(** Run the planner on a request via a throwaway {!Session.t}.  [adjust]
    is forwarded to {!Compile.compile} (per-placement cost adjustments,
    used by {!Redeploy}).  When the request carries a telemetry handle
    with sinks, the run emits a span tree rooted at ["plan"]
    (compile/leveling, plrg, slrg, rg, replay, replay.repair, per-query
    slrg.query), aggregated counters, and periodic ["rg"] progress
    events; failed runs attach the {!pp_failure}-rendered reason to the
    ["plan"] span end as a ["failure"] attribute.

    [metrics] records the run's lifetime metrics into a shared always-on
    registry (see {!Session.metrics}); a telemetry handle arming a
    {!Sekitei_telemetry.Telemetry.Flight} recorder with a dump path gets
    the ring dumped on [Search_limit] / [Deadline_exceeded] failures and
    escaping exceptions. *)
val plan :
  ?adjust:(comp:string -> node:int -> float) ->
  ?metrics:Sekitei_telemetry.Registry.t ->
  request ->
  report

(** [plan_batch reqs] runs {!plan} on every request, in parallel across
    up to [jobs] domains ({!Sekitei_util.Domain_pool.map}: dynamic load
    balancing, input-order results, earliest-index exception
    propagation).  [jobs] defaults to
    [Domain_pool.default_jobs ()] and is capped at the batch size; any
    value [< 1] also selects the default, and [~jobs:1] runs the batch
    sequentially on the calling domain (no domains spawned) — the
    determinism escape hatch.

    Requests are planned shared-nothing, with one caveat the caller
    owns: a {!Sekitei_telemetry.Telemetry.t} handle carries mutable
    counter state, so each request must have its own handle (or
    {!Sekitei_telemetry.Telemetry.null}); a sink shared between those
    handles must be wrapped with {!Sekitei_telemetry.Telemetry.locked}.

    [metrics] may be one registry shared by the whole batch: its
    per-domain shards keep worker recording contention-free, and each
    worker additionally reports pool-health metrics (["pool.workers"],
    ["pool.items"], ["pool.worker_busy_ms"], ["pool.worker_idle_ms"])
    from its own domain when it finishes. *)
val plan_batch :
  ?adjust:(comp:string -> node:int -> float) ->
  ?jobs:int ->
  ?metrics:Sekitei_telemetry.Registry.t ->
  request list ->
  report list

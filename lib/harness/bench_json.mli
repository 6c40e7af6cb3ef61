(** Machine-readable planner benchmark records ([bench/main.exe --json]).

    Emits one flat JSON object per (scenario, level) pair — [scenario],
    one integer key per report count of {!Sekitei_core.Session.counts}
    (the count's name sanitized, e.g. [rg_created], [slrg_deferred]),
    then the timing, GC and batch fields of {!record} under their own
    names — collected into a JSON array written to [BENCH_rg.json] so
    the planner's perf trajectory (per-phase split, SLRG cache reuse,
    deferred-evaluation savings, search-phase GC footprint) is tracked
    across commits. *)

type record = {
  scenario : string;  (** e.g. ["Small-C"] *)
  stats : Sekitei_core.Session.stats;
      (** the first run's counts, emitted through
          {!Sekitei_core.Session.counts}; its timings are not emitted *)
  search_ms : float;  (** graph phases total (plrg + slrg create + rg) *)
  search_ms_p50 : float;
      (** per-repeat distribution of [t_search_ms] through a
          {!Sekitei_util.Histogram} (1% relative error, so [p50] can
          differ from the interpolated median [search_ms] records);
          schema-checked but never gated — small-N tails are noise *)
  search_ms_p90 : float;
  search_ms_p99 : float;
  warm_search_ms : float;
      (** [t_search_ms] of a warm {!Sekitei_core.Session} re-plan
          (median over the repeats, after one untimed cold plan); [0.]
          when the run did not measure warm timings ([--warm] off), so
          the schema is fixed either way *)
  compile_ms : float;  (** {!Sekitei_core.Planner.phases} [compile.ms] *)
  compile_minor_words : float;
      (** minor-heap words allocated by compilation ([compile.minor_words]);
          deterministic, so the gate compares it exactly *)
  plrg_ms : float;
  slrg_ms : float;
      (** oracle construction + lazy queries; the queries run {e inside}
          the RG search, so [slrg_ms] is a subset of [rg_ms] *)
  rg_ms : float;
  minor_words : float;
      (** minor-heap words allocated by the RG search phase (its bracket
          includes the lazy SLRG queries) *)
  slrg_minor_words : float;
      (** the slrg phase's share of the allocation (oracle setup plus
          the lazy queries, {!Sekitei_core.Planner.phases} [slrg]), a
          subset of [minor_words]; recorded, not gated — the metric
          registry's histogram growth moves it by a few hundred words
          between runs *)
  major_collections : int;  (** major GCs triggered by the RG search *)
  jobs : int;  (** worker domains of the batch that produced the record *)
  wall_ms_batch : float;
      (** wall time of the whole batch run, stamped identically on every
          record of one {!run_default}; with [jobs > 1] compare it to the
          sum of [search_ms] to read the parallel speedup *)
}

(** Solve the scenario at the given level and collect its record.
    [repeat] (default 1) re-runs the planner and records the {e median}
    of every timing (and of [minor_words]); counters come from the first
    run — the planner is deterministic, so they agree across repeats.
    [warm] (default [false]) additionally opens a planning session, runs
    one untimed cold plan, and records the median [t_search_ms] of
    [repeat] warm re-plans as [warm_search_ms].  Every run measures the
    production observability configuration: a metric registry shared
    across the runs and a flight recorder armed on each run's telemetry
    handle, no sinks attached. *)
val measure :
  ?config:Sekitei_core.Planner.config ->
  ?repeat:int ->
  ?warm:bool ->
  Scenarios.t ->
  Sekitei_domains.Media.scenario ->
  record

(** The default tracked set: Tiny-C, Small-C and Large-C, measured
    across [jobs] worker domains (default 1 — sequential, the
    configuration whose timings the regression gate compares; parallel
    runs contend for cores and time the contention too).  Stamps [jobs]
    and [wall_ms_batch] on every record. *)
val run_default :
  ?config:Sekitei_core.Planner.config ->
  ?repeat:int ->
  ?jobs:int ->
  ?warm:bool ->
  unit ->
  record list

(** Serialize as a JSON array, one record per line.  [tag] adds a
    ["tag"] field to every record (e.g. a commit phase label). *)
val to_json : ?tag:string -> record list -> string

(** The schema check of an emitted document ([bench --json --check] and
    the test suite): a full parse through {!Sekitei_util.Json} that
    checks every record carries every schema key with a value of its
    kind; [Ok n] is the record count. *)
val parse_check : string -> (int, string) result

val write_file : string -> string -> unit

(** {1 Baseline regression gate}

    [bench --json --baseline BENCH_rg.json --max-regress PCT] diffs the
    current run against the checked-in baseline and exits non-zero when
    any gated metric regressed by more than [PCT] percent.  The gated
    metrics are [search_ms], [rg_created], [slrg_ms], [warm_search_ms]
    and [compile_minor_words]; [rg_created] and [compile_minor_words]
    are machine-independent, so a search-space or grounding blowup trips
    the gate even on hardware fast enough to hide it in the timings, and
    [warm_search_ms] catches cross-request
    reuse regressions (compared only when measured on both sides — an
    unmeasured run records 0.0, and 0-vs-0 never trips).  Both sides
    are read from their JSON records, the current one as {!to_json}
    would emit it. *)

(** One (scenario, metric) comparison.  [d_pct] is the relative change
    in percent, positive when the current run is worse (higher). *)
type delta = {
  d_scenario : string;
  d_metric : string;
  d_base : float;
  d_cur : float;
  d_pct : float;
}

(** The metrics compared by {!diff_baseline}, in row order. *)
val gated_metrics : string list

(** [diff_baseline ~baseline records] parses [baseline] (a previously
    emitted document) and compares every current record against the
    baseline record with the same [scenario].  Errors on a malformed
    baseline or a current scenario the baseline does not cover. *)
val diff_baseline : baseline:string -> record list -> (delta list, string) result

(** Deltas exceeding [max_regress] percent (worse-only; improvements
    never trip the gate). *)
val regressions : max_regress:float -> delta list -> delta list

val render_deltas : delta list -> string

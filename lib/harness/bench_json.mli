(** Machine-readable planner benchmark records ([bench/main.exe --json]).

    Emits one flat JSON object per (scenario, level) pair — [scenario],
    one integer key per report count of {!Sekitei_core.Session.counts}
    (the count's name sanitized, e.g. [rg_created], [slrg_deferred]),
    then the timing and GC fields of {!record} — collected into a JSON
    array written to [BENCH_rg.json] so the planner's perf trajectory
    (per-phase split, SLRG cache reuse, deferred-evaluation savings,
    search-phase GC footprint) is tracked across commits. *)

type record = {
  scenario : string;  (** e.g. ["Small-C"] *)
  stats : Sekitei_core.Session.stats;
      (** the first run's counts, emitted through
          {!Sekitei_core.Session.counts}; its timings are not emitted *)
  search_ms : float;
      (** median [t_search_ms]: graph phases total (plrg + slrg create +
          rg) *)
  warm_search_ms : float;
      (** median [t_search_ms] of warm {!Sekitei_core.Session} re-plans,
          after one untimed cold plan *)
  phases : Sekitei_core.Session.phases;
      (** every field the median over the repeats.  Emitted as
          [compile_ms], [compile_minor_words] (deterministic, so the gate
          compares it exactly), [plrg_ms], [slrg_ms], [rg_ms],
          [minor_words] and [major_collections] (the rg phase's, whose
          bracket includes the lazy SLRG queries) and [slrg_minor_words]
          (recorded, not gated: the metric registry's histogram growth
          moves it by a few hundred words between runs) *)
}

(** Solve the scenario at the given level and collect its record.
    [repeat] (default 1) re-runs the planner and records the {e median}
    of every timing and allocation figure; counters come from the first
    run — the planner is deterministic, so they agree across repeats.
    Then a planning session runs one untimed cold plan and [repeat] warm
    re-plans for [warm_search_ms].  Every run measures the production
    observability configuration: a metric registry shared across the
    runs and a flight recorder armed on each run's telemetry handle, no
    sinks attached. *)
val measure :
  ?config:Sekitei_core.Planner.config ->
  ?repeat:int ->
  Scenarios.t ->
  Sekitei_domains.Media.scenario ->
  record

(** The default tracked set: Tiny-C, Small-C and Large-C, measured one
    after another. *)
val run_default :
  ?config:Sekitei_core.Planner.config -> ?repeat:int -> unit -> record list

(** A count's record key: its {!Sekitei_core.Session.counts} name with
    {!Sekitei_telemetry.Export.sanitize} applied, e.g. [rg_created]. *)
val key : Sekitei_core.Session.count -> string

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
    [warm_search_ms] catches cross-request reuse regressions.  Both
    sides are read from their JSON records, the current one as
    {!to_json} would emit it. *)

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
    baseline record with the same [scenario].  Errors on a baseline that
    fails {!parse_check} or that lacks a current record's scenario. *)
val diff_baseline : baseline:string -> record list -> (delta list, string) result

(** Deltas exceeding [max_regress] percent (worse-only; improvements
    never trip the gate). *)
val regressions : max_regress:float -> delta list -> delta list

val render_deltas : delta list -> string

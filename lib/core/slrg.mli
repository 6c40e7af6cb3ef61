(** Phase 2: the set logical regression graph (paper section 3.2.2).

    Estimates the minimum logical cost of achieving a {e set} of
    propositions together, by A* regression over proposition sets using the
    PLRG cost as heuristic.  Unlike the PLRG's max-aggregation, the SLRG
    accounts for the fact that actions in a serial plan pay their costs in
    sequence (the paper's example: the cost of [{placed(Cl,n1)}] rises from
    18 to 19 because two link crossings can no longer be counted in
    parallel).

    The oracle is lazy, memoized, and built for {e cross-query reuse} —
    one A* pays for many future queries:

    - {b Suffix-cost harvesting.}  A query that terminates exactly records
      the exact cost-to-empty for every set on its optimal path
      ([C* - g(set)], valid because the PLRG h_max heuristic is consistent
      under regression), turning one solve into a batch of solved cache
      entries.
    - {b Bound escalation.}  A budget-exhausted query caches its
      admissible bound {e together with the budget spent}; a re-query
      re-runs with a doubled budget until exact (the bound is then
      {e promoted} to a solved entry) or a fixed per-set cap is reached,
      after which the bound is served from cache.  Escalated re-runs
      additionally draw on one shared per-oracle expansion pool — when it
      runs dry, cached bounds are served as-is, so hard instances with
      thousands of exhausted sets cannot multiply planning time
      (escalation is opportunistic, never needed for soundness).
    - {b Bound seeding.}  Expansions reaching a set whose cost is known
      only as a cached bound fold that bound into the successor's f-value
      (still admissible), so exhausted queries sharpen later ones. *)

type t

(** [telemetry] attaches a ["slrg.query"] sub-span to every non-memoized
    query (set size, A* expansions, resulting cost).  [metrics] records
    each such query's latency into the always-on registry's
    ["slrg.query_ms"] histogram (the handle is resolved once here, on
    the creating domain, so recording stays off the registry's locks).
    Per-query samples exist only in these two places; the oracle's
    counts below are plain fields the planner's report reads. *)
val create :
  ?telemetry:Sekitei_telemetry.Telemetry.t ->
  ?metrics:Sekitei_telemetry.Registry.t ->
  ?query_budget:int ->
  Problem.t ->
  Plrg.t ->
  t

(** The oracle's {!Propset.ctx} (regression tables + set interner).  The
    RG search shares it so both phases agree on handle ids, regression
    memoization, and the {!supports} candidate cache. *)
val ctx : t -> Propset.ctx

(** The oracle's relevant-supports table (see {!Supports}); shared with
    the RG search alongside {!ctx}. *)
val supports : t -> Supports.t

(** Admissible lower bound on the serial cost of achieving all the given
    propositions from the initial state; [infinity] when impossible. *)
val query : t -> int list -> float

(** [query] over an {b already-canonical} set (see {!Propset}); the set
    is interned in the oracle's ctx and delegated to {!query_h}. *)
val query_set : t -> int array -> float

(** [query_set] over an interned handle of this oracle's {!ctx} — the RG
    passes its nodes' handles straight through; results are memoized by
    the handle's dense id (one int-keyed probe per repeat query). *)
val query_h : t -> Propset.handle -> float

(** The cheap PLRG h_max bound of an interned set (the first-stage
    heuristic of deferred evaluation), memoized per dense id — the
    per-proposition sweep runs once per distinct set across the oracle's
    own A* expansions and the RG's deferred pushes. *)
val h_max_h : t -> Propset.handle -> float

(** {1 Counts}

    Each count covers the queries since the last {!begin_request} (or
    since {!create}), so after a request's search it holds that
    request's share. *)

(** Set nodes generated (Table 2, column SLRG). *)
val nodes_generated : t -> int

(** Non-memoized queries: each one runs an A* (escalated re-runs
    included). *)
val queries : t -> int

(** Wall time (ms) spent inside non-memoized queries — the SLRG share of
    the RG search phase in the planner's report.  Tracked whether or not
    telemetry is enabled. *)
val query_ms : t -> float

(** [Gc.minor_words] allocated inside non-memoized queries (the SLRG
    share of the search phase's allocation, reported next to
    {!query_ms}). *)
val gc_minor_words : t -> float

(** Major collections triggered inside non-memoized queries. *)
val gc_major_collections : t -> int

(** Queries answered from the solved or capped-bound caches without
    running an A*. *)
val cache_hits : t -> int

(** Exact cache entries recorded by suffix-cost harvesting beyond the
    queried roots themselves. *)
val suffix_harvested : t -> int

(** Budget-exhausted bounds later replaced by exact solved entries
    (escalated re-query or harvest). *)
val bound_promoted : t -> int

(** {1 Cache access and request lifecycle} *)

(** Iterate over every exact solved cache entry (canonical set, cost).
    Exposed for cache-consistency tests and diagnostics; the iteration
    order is unspecified. *)
val iter_solved : t -> (int array -> float -> unit) -> unit

(** [begin_request t ~deadline] resets the per-request state before a
    (possibly warm) plan request: every exhausted-query bound is dropped,
    the escalation pool is refilled, and [deadline] becomes the token
    polled (every 64 expansions) by subsequent queries; every count
    above restarts at zero.  Exact solved entries and memoized h_max
    values are kept — they are path-independent facts about the
    problem — while bounds depend on budgets and query order and would
    make warm results diverge from a cold run.  A query interrupted by
    the deadline behaves exactly like a budget-exhausted one: it returns
    (and caches) an admissible lower bound. *)
val begin_request : t -> deadline:Sekitei_util.Deadline.t -> unit

(** [refresh t pb plrg ~dirty] rebinds a live oracle to a recompiled
    problem after a topology delta: the supports table is rebuilt against
    the new PLRG, the shared {!Propset.ctx} regression tables are
    refreshed ({!Propset.refresh_ctx}), and every solved / h_max cache
    entry whose set contains a proposition with [dirty p = true] is
    evicted (see {!Supports.taint} for why clean entries stay exact).
    Returns the number of entries evicted.  The caller must have checked
    that [pb.init] is unchanged — otherwise the interner is invalid and
    the oracle must be rebuilt with {!create}. *)
val refresh : t -> Problem.t -> Plrg.t -> dirty:(int -> bool) -> int

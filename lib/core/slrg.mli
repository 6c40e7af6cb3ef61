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
      (still admissible), so exhausted queries sharpen later ones.
    - {b Witnesses.}  Every set on the optimal path an exact solve
      found (the root and the chain below it, harvested or not) records
      the first edge of that path from it: the cheapest action from it
      to the next set on the path, which is the empty set or another
      witnessed set.  The edge is read off the rows the solve already
      filled, so recording interns no set and fills no row.  Every
      finite solved entry has a witness; following witnesses from it
      reaches the empty set, and the actions' cost bounds sum to the
      entry.  {!shrink} keeps exactly the entries whose witnessed path
      survives a delta.

    The A* itself allocates only what it keeps.  Its queue is one
    {!Sekitei_util.Heap} of interned handles per oracle, reset per solve;
    an entry is current when its heap sequence number is the one the
    set's latest push recorded (a set is pushed again only with a lower
    g), so stale entries are recognised without storing g in the queue.
    The per-solve g/parent maps are arrays indexed by set id, and a
    revisited set's successors come from the {!Supports} rows.  A warm
    expansion therefore allocates only the boxed priority of each push;
    sets seen for the first time, their rows and the caches grow as
    needed. *)

type t

(** [telemetry] attaches a ["slrg.query"] sub-span to every non-memoized
    query (set size, A* expansions, resulting cost).  [metrics] records
    each such query's latency into the always-on registry's
    ["slrg.query_ms"] histogram.  Per-query samples exist only in these
    two places; the oracle's {!stats} are plain fields the planner's
    report reads. *)
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
    own A* expansions (which read the memo inline) and the RG's deferred
    pushes. *)
val h_max_h : t -> Propset.handle -> float

(** {1 Counts} *)

(** The oracle's counts since the last {!begin_request} (or since
    {!create}), so after a request's search they hold that request's
    share.  The planner's report carries them as they are. *)
type stats = {
  nodes : int;  (** set nodes generated (Table 2, column SLRG) *)
  queries : int;
      (** non-memoized queries: each one runs an A* (escalated re-runs
          included) *)
  cache_hits : int;
      (** queries answered from the solved or capped-bound caches without
          running an A* *)
  suffix_harvested : int;
      (** exact cache entries recorded by suffix-cost harvesting beyond
          the queried roots themselves *)
  bound_promoted : int;
      (** budget-exhausted bounds later replaced by exact solved entries
          (escalated re-query or harvest) *)
  query_ms : float;
      (** wall time (ms) spent inside non-memoized queries — the SLRG
          share of the RG search phase; tracked whether or not telemetry
          is enabled *)
  minor_words : float;
      (** [Gc.minor_words] allocated inside non-memoized queries (the
          SLRG share of the search phase's allocation); major
          collections are not counted per query *)
}

(** All zero: the counts of a request that never queried an oracle. *)
val no_stats : stats

val stats : t -> stats

(** {1 Cache access and request lifecycle} *)

(** Iterate over every exact solved cache entry (canonical set, cost).
    Exposed for cache-consistency tests and diagnostics; the iteration
    order is unspecified. *)
val iter_solved : t -> (int array -> float -> unit) -> unit

(** [witness t h] is the witness recorded for [h]'s set (see the
    module preamble), [None] if it has none: [Some (act, next)] where
    [act] is an action id of the problem the oracle is bound to and
    [next] the set [act] regresses [h]'s set to, either empty or
    witnessed itself.  Every finite solved entry has one, and following
    witnesses from it reaches the empty set with [cost_lb]s summing to
    the entry, up to float rounding.  For tests and diagnostics. *)
val witness : t -> Propset.handle -> (int * Propset.handle) option

(** Iterate over every stored budget-exhausted bound (canonical set,
    bound), read-only.  Each is an admissible lower bound on the set's
    exact cost.  {!begin_request} drops them all, so after a search they
    are that request's.  For tests and diagnostics; the order is
    unspecified. *)
val iter_bounds : t -> (int array -> float -> unit) -> unit

(** [begin_request t ~deadline] resets the per-request state before a
    (possibly warm) plan request: every exhausted-query bound is dropped,
    the escalation pool is refilled, and [deadline] becomes the token
    polled (every 64 expansions) by subsequent queries; the {!stats}
    restart at zero.  Exact solved entries and memoized h_max
    values are kept — they are path-independent facts about the
    problem — while bounds depend on budgets and query order and would
    make warm results diverge from a cold run.  A query interrupted by
    the deadline behaves exactly like a budget-exhausted one: it returns
    (and caches) an admissible lower bound. *)
val begin_request : t -> deadline:Sekitei_util.Deadline.t -> unit

(** {1 Updates}

    A session keeps its oracle across a recompiled problem in the two
    cases {!Problem.leveled_diff} can vouch for: [Same] ({!rebind}) and
    [Fewer] ({!shrink}).  Both keep the interner, so set ids stay valid,
    and both leave every kept solved entry exact for the new problem and
    every kept witness naming the new problem's action ids.  On
    [Changed] the session drops the oracle and counts its {!entries} as
    evicted; the next plan creates a fresh one with {!create}. *)

(** [rebind t pb plrg] points a live oracle at a recompiled problem
    that {!Problem.leveled_diff} finds [Same] as the one it was built or
    last updated for, and at that problem's PLRG ({!Plrg.rebind}).
    Every solved and h_max entry, every witness, the {!Supports} rows
    and the {!Propset.ctx} tables are kept, since the problems agree on
    everything they were computed from; nothing is evicted. *)
val rebind : t -> Problem.t -> Plrg.t -> unit

(** [shrink t pb plrg ~map] points a live oracle at a recompiled problem
    that {!Problem.leveled_diff} finds [Fewer map] than the old one, and
    at [plrg], built for [pb].  Removing actions can only raise set
    costs, so a solved entry whose witness path still exists — each
    witness action maps to a new action that [plrg] finds relevant, and
    each next set is the empty set or an entry that is kept too — is
    still exact; it stays, its witness remapped through [map].  Every
    other finite entry is evicted; infinite entries stay.  An h_max memo
    entry is evicted when [plrg] changed the cost of one of its set's
    propositions.  The {!Propset.ctx} tables move through [map]
    ({!Propset.refresh_ctx}); the {!Supports} rows are rebuilt, and
    refill lazily as searches read them.  Returns the number of solved
    and h_max entries evicted. *)
val shrink : t -> Problem.t -> Plrg.t -> map:int array -> int

(** The number of solved and h_max memo entries the oracle holds. *)
val entries : t -> int

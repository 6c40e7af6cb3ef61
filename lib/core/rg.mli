(** Phase 3: the main regression graph (paper section 3.2.3).

    A* over totally-ordered plan tails, regressing from the goal
    propositions.  Each node carries the tail built so far and the set of
    propositions still to achieve; expanding a node prepends an action that
    supports at least one pending proposition.  Every new tail is replayed
    forward in its optimistic resource map and pruned on failure (early
    detection of resource and QoS violations).  A node whose pending set is
    empty is a candidate solution; it is accepted only when the tail also
    replays successfully from the true initial state.

    The remaining-cost heuristic is the SLRG set cost; path cost is the sum
    of the leveled actions' cost lower bounds, so the first accepted
    solution minimizes the plan's cost lower bound (paper section 4:
    "our algorithm optimizes the minimum cost of the plan").

    The hot path is incremental: each node carries a {!Replay.rstate}
    snapshot of its suffix's optimistic resource map, extended by exactly
    one action per search edge in the [Regression] replay mode, and a
    duplicate table keyed by (canonical pending set, tail action set)
    prunes permutations of already-open nodes — nodes agreeing on both
    components regress the same obligations at the same cost.  Candidate
    solutions (empty pending set) are exempt from duplicate pruning and
    are still validated by a full from-init replay of the tail in
    execution order, with a backtracking re-sequencing fallback
    ({!repair_order}) because that validation is order-sensitive while
    dedup is not, and Regression replay can prune the one order that
    runs ({!Replay.mode}).  Re-sequencing is opportunistic: all attempts
    of one search share a step pool and action sets proven unrepairable
    are never retried, so infeasible instances rejecting thousands of
    candidates pay at most the pool. *)

type stats = {
  created : int;  (** RG nodes created *)
  expanded : int;
  open_left : int;  (** nodes left in the A* queue at termination *)
  replay_pruned : int;  (** successor edges discarded by optimistic replay *)
  final_replay_rejected : int;  (** complete tails rejected from the init map *)
  duplicates : int;
      (** successors pruned by the duplicate table: permutations of a
          (pending set, action set) pair already on the open list *)
  order_repaired : int;
      (** candidate tails whose surviving order failed from-init
          validation but were recovered by the backtracking re-sequencer
          {!repair_order} *)
  slrg_deferred : int;
      (** nodes queued with the cheap PLRG bound instead of an SLRG query
          (every queued node except candidate solutions) *)
  slrg_saved : int;
      (** deferred nodes that terminated still unrefined — oracle queries
          this search never ran *)
}

(** All zero: the counts of a request that never searched. *)
val no_stats : stats

(** Why a search stopped short, as evidence: the best-f open node when
    the search was cut off, rendered once at the cutoff.  [best_f] is an
    admissible lower bound on the cost of any plan a longer search could
    still find; [tail] is that node's action labels (execution order) and
    [unmet] the labels of the propositions it still had to achieve.
    {!Session.failure_reason} carries this record as it is. *)
type frontier = { best_f : float; tail : string list; unmet : string list }

type result =
  | Solution of Action.t list * Replay.metrics * float  (** tail, metrics, cost bound *)
  | Exhausted  (** no resource-feasible plan (the scenario-A verdict) *)
  | Cutoff of {
      by : [ `Budget | `Deadline ];
          (** the expansion budget ran out, or the request deadline
              fired first *)
      expansions : int;
      frontier : frontier;  (** the node whose pop hit the cutoff *)
    }

(** Re-sequence a candidate tail (an action set in some infeasible order)
    into an order that replays from the true initial state, by depth-first
    backtracking with infeasible-remainder memoization; [max_steps]
    (default 20000) bounds the total [Replay.extend] calls.  Returns the
    feasible order and its deployment metrics, or [None] when no ordering
    of the set replays (or the step budget runs out).  Used by {!search}
    on candidate solutions whose dedup-surviving order fails validation;
    exposed for direct testing against brute-force permutation search.

    The case it exists for is pinned by the core test "order repair
    witness": two goal components read one degradable stream at one node
    at different levels ([High] needs [V.ibw >= 50], [Low]
    [V.ibw <= 40], the camera supplies 60).  Regression replay rejects
    [place(High); place(Low)] (see {!Replay.mode}), so the candidate
    that reaches validation runs [Low] first and fails from init; repair
    returns [cross(V,cam->tv); place(High); place(Low)] at cost bound
    13, and without it the planner finds no plan. *)
val repair_order :
  ?max_steps:int ->
  Problem.t ->
  Action.t list ->
  (Action.t list * Replay.metrics) option

(** Heuristic evaluation is lazy and two-stage: successors are queued
    under the cheap PLRG h_max bound and the expensive SLRG oracle query
    runs only when a node first reaches the top of the open list,
    re-inserting it if the refined f-value exceeds the new frontier
    minimum.  Because the SLRG heuristic dominates the PLRG one and node
    serial numbers are preserved across re-insertion, a node is never
    expanded before its refined f is proven minimal, so the A*
    admissibility argument — and with it solvability and the optimal
    cost bound — holds.  SLRG-infeasible successors are detected at pop
    rather than at push, and the queries saved are reported in
    [slrg_deferred]/[slrg_saved].

    The oracle's answers depend on the order it is queried in, for two
    reasons {!Session}'s warm-vs-cold contract relies on.  First, a
    budget-exhausted query records a bound that depends on the shared
    escalation pool, which different query sequences drain differently.
    Second, even exact values are path-independent only mathematically:
    a set with several equally-optimal support paths caches the cost of
    whichever query harvested it first, and float addition is not
    associative, so h can differ in the last ulp between query orders —
    enough to swap f-tied frontier nodes, perturb [expanded], and return
    a different equally-cheap optimum.

    [telemetry] emits a periodic ["rg"] progress heartbeat (every
    {!Sekitei_telemetry.Telemetry.progress_interval} expansions: open-list
    size, best f, expansions, duplicates) and wraps final candidate
    validation in ["replay"] / ["replay.repair"] sub-spans.  The search
    totals leave only through {!stats}; {!Session} turns them into trace
    counters and registry metrics.  Nothing is recorded per node: the
    accepted node's ancestor chain is the goal set regressed through the
    returned tail, last action first, so heuristic quality along it is
    read off the plan afterwards ([Sekitei_harness.Hquality.samples]).

    [max_expansions] (default 500000) and [deadline] are checked once
    per expansion (at pop, after heuristic refinement); whichever trips
    first stops the search with a [Cutoff] whose frontier carries the
    frontier-minimum f as a valid lower bound. *)
val search :
  ?max_expansions:int ->
  ?telemetry:Sekitei_telemetry.Telemetry.t ->
  ?deadline:Sekitei_util.Deadline.t ->
  Problem.t ->
  Slrg.t ->
  result * stats

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
    dedup is not.  Re-sequencing is opportunistic: all attempts of one
    search share a step pool and action sets proven unrepairable are
    never retried, so infeasible instances rejecting thousands of
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

(** One heuristic-quality sample, recorded (under [?profile]) for every
    node on the ancestor chain of the accepted solution: the node's
    pending-set size, its path cost [g], the SLRG heuristic the search
    expanded it under (the value refined at pop), and the PLRG h_max
    value of the same pending set.
    Against the solution cost [C*], the realized cost-to-go of the node
    is [C* - g]; admissibility demands [h <= C* - g] for both columns. *)
type hsample = { set_size : int; g : float; h_slrg : float; h_plrg : float }

(** The best-f open node at budget exhaustion: its tail (execution
    order) and the propositions it still had to achieve — the evidence
    behind a {!Sekitei_core.Planner.failure_reason.Search_limit}
    explanation. *)
type frontier = { f_tail : Action.t list; f_pending : int array }

type result =
  | Solution of Action.t list * Replay.metrics * float  (** tail, metrics, cost bound *)
  | Exhausted  (** no resource-feasible plan (the scenario-A verdict) *)
  | Budget_exceeded of {
      expansions : int;
      best_f : float;  (** admissible lower bound on any plan a longer
                           search could still find *)
      frontier : frontier option;
          (** the node whose pop hit the budget (carries [best_f]) *)
    }
  | Deadline_reached of {
      expansions : int;
      best_f : float;
          (** same admissible lower-bound evidence as [Budget_exceeded],
              produced when the request deadline fired first *)
      frontier : frontier option;
    }

(** Re-sequence a candidate tail (an action set in some infeasible order)
    into an order that replays from the true initial state, by depth-first
    backtracking with infeasible-remainder memoization; [max_steps]
    (default 20000) bounds the total [Replay.extend] calls.  Returns the
    feasible order and its deployment metrics, or [None] when no ordering
    of the set replays (or the step budget runs out).  Used by {!search}
    on candidate solutions whose dedup-surviving order fails validation;
    exposed for direct testing against brute-force permutation search. *)
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

    [profile], when given, turns on heuristic-quality recording: every
    queued node carries its (set size, g, h) sample chained to its
    ancestors', and on [Solution] the ref receives the accepted node's
    chain, root first.  Per queued node the overhead is one PLRG h_max
    sweep over the pending set and one cons; when absent the search pays
    a single [None] branch per push.

    [telemetry] emits a periodic ["rg"] progress heartbeat (every
    {!Sekitei_telemetry.Telemetry.progress_interval} expansions: open-list
    size, best f, expansions, duplicates) and wraps final candidate
    validation in ["replay"] / ["replay.repair"] sub-spans.  The search
    totals leave only through {!stats}; {!Session} turns them into trace
    counters and registry metrics.

    [deadline] is polled once per expansion (at pop, after heuristic
    refinement); on expiry the search stops with [Deadline_reached]
    carrying the frontier-minimum f as a valid lower bound. *)
val search :
  ?max_expansions:int ->
  ?profile:hsample list ref ->
  ?telemetry:Sekitei_telemetry.Telemetry.t ->
  ?deadline:Sekitei_util.Deadline.t ->
  Problem.t ->
  Plrg.t ->
  Slrg.t ->
  result * stats

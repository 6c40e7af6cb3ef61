(** Phase 1: the per-proposition logical regression graph (paper
    section 3.2.1).

    Estimates, for every proposition, the minimum logical cost of achieving
    it from the initial state, ignoring resource interactions: the cost of
    a proposition is the minimum over supporting actions of (action cost
    lower bound + the maximum cost of the action's preconditions); initial
    propositions cost 0.  This is the classic admissible h_max heuristic,
    computed with a Dijkstra-style label-correcting sweep.

    The PLRG also yields the {e relevant} subgraph — propositions and
    actions on some finite-cost support chain backward from the goals —
    whose node counts Table 2 reports, and proves unreachability when a
    goal has infinite cost (the problem then has no solution at all). *)

type t

(** The planner wraps the call in a ["plrg"] span and reads the
    relevant-cone sizes from {!stats}.  [deadline] is polled once per
    label relaxation; on expiry the sweep raises
    [Sekitei_util.Deadline.Expired "plrg"] — a half-finished cost table
    admits no useful partial answer. *)
val build : ?deadline:Sekitei_util.Deadline.t -> Problem.t -> t

(** [rebind t pb] is [t] over [pb], a recompiled problem that
    {!Problem.leveled_diff} finds [Same] as [t]'s: the costs and the
    relevant cone are shared, since they are computed from exactly what
    the two problems agree on. *)
val rebind : t -> Problem.t -> t

(** Admissible lower bound on the cost of achieving a proposition;
    [infinity] when logically unreachable. *)
val cost : t -> int -> float

(** Is every goal reachable? *)
val goals_reachable : t -> bool

(** Goal proposition ids the cost sweep proved logically unreachable
    (infinite cost) — the evidence behind
    {!Session.failure_reason.Unreachable_goal}. *)
val unreachable_goals : t -> int list

(** [support_chain t p] walks from an infinite-cost proposition [p] (an
    unreachable goal) down its supporting actions' infinite-cost
    preconditions to the proposition the sweep actually pruned: one with
    no supporting action at all, or only cyclic support.  The chain
    starts at [p] and ends at that proposition, inclusive; [[p]] when [p]
    itself has no support. *)
val support_chain : t -> int -> int list

(** Action ids usable on some finite-cost support chain (every
    precondition reachable).  The RG restricts branching to these. *)
val relevant_actions : t -> int list

(** Is the given action relevant? *)
val action_relevant : t -> int -> bool

(** Table 2 statistics: number of proposition / action nodes in the
    backward-relevant cone from the goals. *)
val stats : t -> int * int

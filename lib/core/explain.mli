(** Plan explanations and unsolvability certificates.

    The paper's claim is that the leveled regression search returns
    {e cost-optimal} throttled deployments; this module makes the claim
    inspectable.  For a solved run, {!explain} derives from the final
    plan a per-action account — cost-lower-bound contribution (the
    quantity the A* optimized; the column total is exactly
    [Plan.cost_lb]), realized cost at the operating points, the chosen
    level assignment, and the binding resource constraint of the step
    (node CPU for [place], link bandwidth for [cross]) with its
    remaining slack.  For a failed run, {!certificate} renders the
    evidence the failure already carries: the first goal-relevant
    proposition the PLRG pruned (with its support chain back to a goal),
    or the best-f frontier node of a cut-off search with its unmet
    preconditions.

    Nothing here runs inside the planner: a caller explains a plan
    against {!Session.problem} after planning, and certifies a failure
    from its {!Session.failure_reason} alone. *)

module I = Sekitei_util.Interval

(** The binding resource constraint of one step: the capacity pool the
    action draws from, what the step itself consumed, what the whole
    deployment ends up consuming, and the remaining slack
    ([capacity - total_used]). *)
type binding = {
  resource : string;  (** ["cpu"] for placements, ["lbw"] for crossings *)
  location : string;  (** node name, or ["src-dst (kind)"] for a link *)
  capacity : float;
  step_used : float;  (** this action's own consumption *)
  total_used : float;  (** deployment total on this pool *)
  slack : float;
}

type step = {
  index : int;  (** execution position, 0-based *)
  label : string;  (** action label, e.g. ["place(Splitter,n0)"] *)
  cost_lb : float;  (** admissible contribution (cost at level infima) *)
  realized_cost : float;  (** contribution at the operating points *)
  levels : (string * I.t) list;
      (** chosen level assignment: produced interfaces and their
          intervals (consumed ones when the action produces nothing) *)
  binding : binding option;
}

type t = {
  steps : step list;  (** execution order *)
  plan_cost : float;
      (** sum of the [cost_lb] column, accumulated in the same order as
          the search's [g] so it equals [Plan.cost_lb] {e exactly} *)
  realized_cost : float;
}

(** [explain pb plan] replays the plan from the initial state and
    tabulates.  [Error reason] when the plan does not replay (a planner
    bug — validated plans always replay). *)
val explain : Problem.t -> Plan.t -> (t, string) result

(** Render as an aligned ASCII table, one row per action plus a totals
    row. *)
val render : t -> string

(** Render the evidence a failure carries, or [None] when it carries
    none: an {!Session.Unreachable_goal} names its goal, the pruned
    proposition at the end of the support chain and the chain itself; a
    {!Session.Search_limit} (["search budget exhausted"]) or an in-search
    {!Session.Deadline_exceeded} (["deadline reached"]) lists the best-f
    frontier node's bound, actions and unmet preconditions.  Invalid
    specs, resource exhaustion, certification failures and deadlines
    outside the RG give [None]. *)
val certificate : Session.failure_reason -> string option

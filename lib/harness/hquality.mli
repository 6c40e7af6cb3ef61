(** Heuristic-quality analysis of a returned plan.

    The RG search's accepted node descends from the root through one
    node per plan action: the goal set regressed through the plan, last
    action first.  {!samples} rebuilds that ancestor chain after
    planning, from the plan and the compiled problem the session planned
    against ({!Sekitei_core.Session.problem}), and records for each node
    its pending-set size, its path cost [g], the SLRG heuristic of the
    set and the PLRG h_max it refines.  Against the solution cost [C*]
    the realized cost-to-go of such a node is [C* - g], which makes the
    per-node heuristic error [(C* - g) - h] directly measurable — the
    methodology of the heuristic-accuracy evaluations in the LAMA / Fast
    Downward tradition.  The search itself records nothing for this.

    [analyze] turns the samples into per-phase error statistics (exact
    percentiles: a path has plan length + 1 samples), counts
    admissibility violations ([h > C* - g], which must be zero for both
    heuristics or the optimality claim is void), and computes the
    wasted-work ratio: the fraction of expansions spent on nodes off the
    returned path. *)

(** One node of the chain: its pending-set size, path cost [g], and the
    two heuristics of its pending set. *)
type sample = { set_size : int; g : float; h_slrg : float; h_plrg : float }

(** [samples ?query_budget pb plan] — one sample per plan action plus
    the root, root first.  [pb] must be the problem [plan] was planned
    against.  A fresh SLRG oracle (per-query set-node budget
    [query_budget], default
    {!Sekitei_core.Session.default_config}[.slrg_query_budget]) answers
    [h_slrg].

    - [g] is summed in the search's own order (last action first), so it
      equals the search's [g] bit for bit, and the last sample's [g] is
      the plan's [cost_lb].
    - [h_slrg] is what a fresh oracle answers along the path, not the
      value the search happened to refine the node with; the two agree
      up to the last ulp unless a budget-exhausted query left a bound
      (those depend on the order the oracle was queried in).
    - On a plan whose tail the search re-sequenced (no built-in
      scenario has one), the chain follows the returned order, so its
      [g] sums may differ from the search's in the last ulp.  Each
      prefix still achieves its pending set, so [h <= C* - g] remains
      the admissibility test. *)
val samples :
  ?query_budget:int ->
  Sekitei_core.Problem.t ->
  Sekitei_core.Plan.t ->
  sample list

(** Error statistics of one heuristic ("phase"): all in cost units. *)
type phase_quality = {
  samples : int;
  mean_err : float;  (** mean of [(C* - g) - h] *)
  p50 : float;
  p90 : float;
  p99 : float;
  max_err : float;
  violations : int;  (** samples with [h > C* - g + 1e-6]; must be 0 *)
}

type report = {
  plan_cost : float;  (** [C*], the optimized cost lower bound *)
  path_nodes : int;  (** sampled nodes on the solution path *)
  expanded : int;  (** total RG expansions of the run *)
  wasted_ratio : float;
      (** [(expanded - path_nodes) / expanded]; 0 when nothing was
          expanded off the returned path *)
  slrg : phase_quality;  (** the search heuristic *)
  plrg : phase_quality;  (** the per-proposition h_max it refines *)
}

(** [analyze ~plan_cost ~expanded samples] — [samples] root first as
    {!samples} returns them; [expanded] is the run's
    [stats.rg.expanded]. *)
val analyze : plan_cost:float -> expanded:int -> sample list -> report

(** Render as ASCII tables (one row per phase, plus a summary line). *)
val render : report -> string

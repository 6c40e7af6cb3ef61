(** The original Sekitei's post-processing resource minimizer (paper
    section 2.3).

    Before resource levels, Sekitei tried to reduce a greedy plan's
    resource consumption {e after} finding it, by throttling the supply to
    the least amount that still satisfies the goals.  The paper's Scenario
    1 shows why this is insufficient: when the greedy planner finds no plan
    at all, there is nothing to post-process.  We reproduce the mechanism
    so the ablation benchmark can demonstrate exactly that.

    The minimizer bisects a uniform scale factor over all source
    capacities, keeping the plan's action sequence fixed, and returns the
    smallest scale whose [From_init] replay still succeeds. *)

type result = {
  scale : float;  (** smallest feasible supply fraction *)
  metrics : Replay.metrics;  (** metrics at that scale *)
}

(** [minimize problem plan] bisects the scale to within 1e-3.
    Returns [None] when even the unscaled plan fails to replay. *)
val minimize : Problem.t -> Plan.t -> result option

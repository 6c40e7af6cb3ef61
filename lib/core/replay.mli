(** Forward execution of plan tails in optimistic resource maps (paper
    section 3.2.3, Figure 8).

    A tail is a totally ordered action sequence executed front to back.
    Every interface property carries an interval; each action first
    {e meets} the current interval with its assumed level (degradable
    streams may be throttled down into the level, upgradable ones up),
    then checks its conditions for satisfiability, consumes node/link
    resources at the interval supremum (the paper's greedy "maximum
    possible utilization" — which under level-throttling is the realized
    operating point), and finally produces its outputs by monotone
    interval evaluation of the effect formulae.

    Two modes:
    - [From_init] — inputs must be produced by earlier actions or the
      initial state; used for the final soundness check and for deployment
      metrics.
    - [Regression] — optimistic execution for the RG search's incremental
      extension, where each [extend] appends the action that executes
      {e first} in plan time.  Unknown inputs are seeded from the
      action's assumed level capped by the interface's global maximum
      ({!Problem.t.iface_max}), and checked (unimportant) node/link
      levels and [node.r]/[link.r] condition variables are evaluated
      against the {e base} capacity rather than the running remainder —
      the running remainder already includes consumption by plan-later
      actions, amounts not yet consumed at the moment the new action
      really runs.  Consumption sums themselves are order-independent,
      so capacity exhaustion checks stay exact.  Interval narrowing is
      not: [extend] meets the consumers of one stream at one site in the
      mirror of plan order, so a consumer that throttles a degradable
      stream narrows it for the plan-earlier consumers too.  A
      Regression failure therefore proves that the tail fails with each
      site's consumers narrowing it in that mirrored order, not that no
      completion of the tail can succeed: in the core test "order repair
      witness", Regression rejects [place(High); place(Low)] while
      [cross(V,cam->tv); place(High); place(Low)] runs from init.  The
      search recovers such plans only through order repair
      ({!Rg.repair_order}). *)

module I = Sekitei_util.Interval

type mode = From_init | Regression

type failure = {
  failed_index : int;  (** position in the tail, -1 for goal checks *)
  failed_action : string;  (** action label or goal description *)
  reason : string Lazy.t;
      (** rendered on first [Lazy.force]: the RG search prunes on most
          regression-mode failures without reading why, so the text
          (interval renderings, [%g] amounts) is built only for a
          reader such as {!pp_failure} *)
}

type metrics = {
  realized_cost : float;
      (** cost formulae evaluated at the operating points *)
  lan_peak : float;  (** max bandwidth reserved on any LAN link *)
  wan_peak : float;
  lan_total : float;
  wan_total : float;
  node_cpu_used : (int * float) list;  (** per node, "cpu" consumption *)
  link_used : (int * float) list;
      (** exact per-link ["lbw"] consumption, link id ascending *)
  delivered : (int * int * float) list;
      (** (iface, node, operating value) at every tail-end availability *)
}

type outcome = (metrics, failure) result

(** [run problem ~mode tail] executes the tail (earliest action first).
    [source_scale] (default 1) scales every source's capacity — the hook
    the post-processing optimizer uses to throttle the supply.
    [telemetry] wraps the execution in a ["replay"] span carrying the
    tail length and outcome (the RG search passes its handle through for
    the final from-init validation). *)
val run :
  ?telemetry:Sekitei_telemetry.Telemetry.t ->
  ?source_scale:float ->
  Problem.t ->
  mode:mode ->
  Action.t list ->
  outcome

(** {1 Incremental replay states}

    A snapshot of the replay execution state after some action sequence.
    The state's tables are persistent maps, so [extend] applies {e one}
    action to a fresh four-field record sharing the parent's maps and
    leaves the parent untouched — the RG search carries one [rstate] per
    node, so pushing a successor costs one action execution (plus the
    map nodes it rebinds) instead of a full tail replay or a table
    copy.

    Equivalence guarantee: folding [extend pb ~mode] over an action list
    [l] from [initial pb] yields the same accept/reject outcome — and on
    acceptance the same {!metrics} — as [run pb ~mode l], because [run]
    is that fold. *)

type rstate

(** State of the empty sequence, at full source supply. *)
val initial : Problem.t -> rstate

(** [extend pb ~mode rs act] executes [act] against a snapshot of [rs].
    [rs] itself is never mutated — whether [act] succeeds or fails — and
    remains valid for further extensions (search-tree branching).  The failure's [failed_index] is the number
    of actions already applied to [rs]. *)
val extend : Problem.t -> mode:mode -> rstate -> Action.t -> (rstate, failure) result

(** Accumulated realized cost of the applied actions. *)
val rstate_cost : rstate -> float

(** Number of actions applied. *)
val rstate_length : rstate -> int

(** Deployment metrics of the state, as {!run} would report them. *)
val rstate_metrics : Problem.t -> rstate -> metrics

val pp_failure : Format.formatter -> failure -> unit

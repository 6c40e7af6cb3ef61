(** Compilation of a CPP specification into leveled planning actions
    (paper sections 2.2 and 3.1).

    Grounding produces one action schema per (placeable component, node)
    and per (interface, link, direction).  Leveling replicates each schema
    over consistent level assignments and prunes:

    - combinations whose conditions are unsatisfiable on the level
      intervals;
    - combinations whose best-case resource consumption already exceeds
      static capacity (this reproduces the paper's "actions for crossing
      the link with the M stream with levels above 1 are pruned");
    - dominated crossings of degradable streams whose output level is
      below their input level (the same effect is available more cheaply
      by entering at the lower level).

    [Available] goals are rewritten into synthetic zero-cost sink
    components so the planner only ever pursues [Placed] goals.

    Grounding reads the specification once per schema, not once per
    level combination.  Each placement schema (per component) and
    crossing schema (per interface) resolves its formulas' variables to
    slots ([slot Sekitei_expr.Expr.gen]: an input level, a checked
    site-resource level, a site capacity, an unconstrained secondary
    property), and computes what does not depend on the site: required
    interfaces, mentioned resources, input-level combinations with
    their label suffixes, and the resource levels.  A combination then
    costs array reads and interval arithmetic.  A schema reads its site
    only through the capacities of the resources its formulas name, so
    it is evaluated once per distinct value of those capacities: the
    checked levels, cost bounds and output levels of that evaluation
    serve every node, or every link in both directions, that shares
    them, and each site builds only its proposition ids, labels,
    add-closures and cost adjustment.  Add-closures are contiguous
    per-proposition id ranges, built once and shared by the actions
    achieving them.  None of this changes
    what is emitted: action order, ids, labels, cost bits and the
    exceptions raised on malformed specifications are those of grounding
    each combination from the raw specification. *)

exception Compile_error of string

(** [compile topo app leveling] builds the planning problem.

    [adjust ~comp ~node] (default 0) returns an additive cost adjustment
    applied to every placement of [comp] on [node] - the hook behind
    {!Redeploy}'s keep-discounts and migration surcharges.  It is asked
    once per node [comp] has placements on.  A total action cost is
    never adjusted below zero.

    [telemetry] wraps the leveled-grounding stage in a ["leveling"]
    sub-span (attribute: leveled action count).

    [deadline] is polled once per grounding group; on expiry compilation
    raises [Sekitei_util.Deadline.Expired "compile"].

    [prune] (default true) removes provably dead leveled actions after
    grounding: actions assuming an input level whose infimum exceeds the
    interface's achievable maximum ([iface_max], the same admissible
    bound Regression replay seeds unknown streams with), plus any action
    whose preconditions only such actions could have produced (relaxed
    forward reachability, run as a worklist: an action fires once its
    count of unproduced preconditions reaches zero, so each action and
    proposition is visited once).  The removed count is surfaced as
    [Problem.pruned_actions]; survivors keep their relative order and
    are renumbered, so plans are unaffected.  Pass [~prune:false] to
    keep the raw grounding (used by tests comparing the two).

    @raise Compile_error on inconsistent specifications (pre-placed
    components with requirements, violated initial conditions, negative
    cost bounds). *)
val compile :
  ?adjust:(comp:string -> node:int -> float) ->
  ?telemetry:Sekitei_telemetry.Telemetry.t ->
  ?deadline:Sekitei_util.Deadline.t ->
  ?prune:bool ->
  Sekitei_network.Topology.t ->
  Sekitei_spec.Model.app ->
  Sekitei_spec.Leveling.t ->
  Problem.t

(** [recompile ~old topo app leveling] recompiles after a topology
    change, reusing the grounding work of [old] (a problem compiled
    from the {e same} [app], [leveling] and [adjust] against
    [old.topo]).  Grounding groups — per (component, node) and per
    (interface, link, direction) — whose site reads the same capacities
    in [old.topo] and [topo] are copied from [old] with freshly assigned
    act_ids; the others are re-grounded against the new capacities.  A
    site's capacities agree when every resource it lists has the same
    value, bit for bit, on both sides, in any list order.  Link ids are
    stable across every {!Sekitei_network.Mutate} operation, so crossing
    groups are matched between [old] and the new topology by their link
    id directly; removed (tombstoned) links simply have no group on the
    new side.  The node set must be unchanged (a change may zero a
    node's resources but never remove the node), which keeps the
    proposition id space stable.

    Returns the new problem — structurally identical to a cold
    {!compile} of [topo] — and the number of [old] actions that could
    not be reused (recompiled or dropped), surfaced as the session's
    [invalidated_actions] counter. *)
val recompile :
  ?adjust:(comp:string -> node:int -> float) ->
  ?telemetry:Sekitei_telemetry.Telemetry.t ->
  old:Problem.t ->
  Sekitei_network.Topology.t ->
  Sekitei_spec.Model.app ->
  Sekitei_spec.Leveling.t ->
  Problem.t * int

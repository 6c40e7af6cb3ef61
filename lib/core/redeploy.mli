(** Redeployment: repairing an existing deployment after the environment
    changes (the paper's stated future work, section 6: "we also intend to
    use our planner for repairing and adapting existing deployments ...
    separate operators are necessary, because the cost of migration
    differs from that of the initial deployment").

    Rather than separate operator schemas, adaptation is expressed through
    per-placement cost adjustments: re-placing a component where it
    already runs earns [keep_discount] (restarting in place is nearly
    free), while placing a component type that previously ran elsewhere
    pays [migrate_surcharge] (state transfer).  Fresh components pay the
    normal cost.  The A* search then weighs staying put against moving
    exactly as the paper's cost model intends. *)

type policy = {
  keep_discount : float;
      (** subtracted from the placement cost at the previous node *)
  migrate_surcharge : float;
      (** added when the component type moves to a different node *)
}

(** Keep discount 5, migration surcharge 3 — placements are sticky but
    migration is not prohibitive. *)
val default_policy : policy

type diff = {
  kept : (string * int) list;
  moved : (string * int * int) list;  (** component, old node, new node *)
  added : (string * int) list;
  removed : (string * int) list;
}

(** [replan ~previous topo app leveling] plans on the (possibly changed)
    topology with adaptation costs relative to the previous placements. *)
val replan :
  ?config:Planner.config ->
  ?policy:policy ->
  previous:(string * int) list ->
  Sekitei_network.Topology.t ->
  Sekitei_spec.Model.app ->
  Sekitei_spec.Leveling.t ->
  Planner.report

(** Placement diff between a previous deployment and a new plan. *)
val diff : previous:(string * int) list -> Problem.t -> Plan.t -> diff

val pp_diff : Format.formatter -> diff -> unit

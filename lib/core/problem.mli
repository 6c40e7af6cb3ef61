(** A compiled CPP instance: the output of {!Compile.compile} and the input
    of the three graph phases. *)

module I = Sekitei_util.Interval
module Topology = Sekitei_network.Topology
module Model = Sekitei_spec.Model

type source = {
  src_iface : int;
  src_node : int;
  src_interval : I.t;  (** initially available value range, e.g. [0,200] *)
  src_secondary : (string * float) list;
      (** initial values of non-primary properties *)
}

type t = {
  topo : Topology.t;
  app : Model.app;
  ifaces : Model.iface array;
  comps : Model.component array;
  iface_levels : I.t array array;  (** per iface: level intervals *)
  iface_tags : Model.tag array;  (** primary-property tag per iface *)
  props : Prop.interner;
  actions : Action.t array;
  supports : int list array;
      (** per proposition id: action ids whose add-closure contains it *)
  init : bool array;  (** proposition id -> holds initially *)
  init_consumed : (int * string * float) list;
      (** node resources consumed by pre-placed components *)
  sources : source list;
  goal_props : int array;
  comp_allowed_node : int option array;
      (** placement restriction, used for synthetic goal-sink components *)
  iface_max : float array;
      (** network-ignorant upper bound on each interface's primary property
          (the paper's "maximum possible utilization"): source capacities
          pushed through component effects to a fixpoint *)
  pruned_actions : int;
      (** leveled actions the compiler proved dead and removed: their
          input level's infimum exceeds the interface's achievable
          maximum, or a precondition became unproducible as a result
          (surfaced as the [analysis.pruned_actions] counter) *)
  ground_actions : Action.t array;
      (** the full grounded action set {e before} dead-action pruning,
          in emission order with pre-prune ids — physically [actions]
          when nothing was pruned.  Only {!Compile.recompile} reads it:
          reuse groups must carry every instance of an untouched site,
          dead ones included, because a delta elsewhere can revive them
          (the fresh compile re-proves deadness from scratch) *)
}

val iface_index : t -> string -> int
val comp_index : t -> string -> int

(** Primary-property name of an interface by index. *)
val primary : t -> int -> string

(** Static capacity of a node resource; 0.0 when the node lacks it. *)
val node_cap : t -> int -> string -> float

(** Static capacity of a link resource; 0.0 when the link lacks it. *)
val link_cap : t -> int -> string -> float

val action : t -> int -> Action.t

(** [same_leveled a b] holds when [a] and [b] agree on everything the
    PLRG, the SLRG oracle and the {!Supports} rows read: [init],
    [goal_props], and each action's [kind], [pre], [add_closure] and
    [cost_lb], position by position (so action ids agree too).  A
    capacity change that crosses no level cutpoint typically yields a
    problem that agrees with the old one while its actions' checked
    levels differ: those, like the capacities themselves, are read by
    replay alone.  A session keeps its PLRG and its oracle across an
    update exactly when the old and the recompiled problem agree
    ({!Session.update}). *)
val same_leveled : t -> t -> bool
val pp_prop : t -> Format.formatter -> int -> unit
val prop_label : t -> int -> string

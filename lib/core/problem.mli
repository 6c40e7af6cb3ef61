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

(** How a recompiled problem relates to the one it replaces, judged on
    everything the PLRG, the SLRG oracle and the {!Supports} rows read:
    [init], [goal_props], and each action's [kind], [pre], [add_closure]
    and [cost_lb].  Checked levels, like the capacities themselves, are
    read by replay alone.

    - [Same]: the two agree position by position, so action ids agree
      too.  A capacity change that crosses no level cutpoint typically
      yields this.
    - [Fewer map]: [init] and [goal_props] agree and the new actions are
      a field-equal subsequence of the old ones, fewer of them;
      [map.(a)] is the new id of old action [a], or [-1] when [a] has no
      counterpart.  A removed link, a failed node and a capacity cut
      below a cutpoint typically yield this.  Removing actions can only
      raise the PLRG and SLRG costs and shrink the relevant cone.
    - [Changed]: anything else (an action added or altered, or a
      different [init] or [goal_props]).

    {!Session.update} keeps the whole oracle on [Same], the entries whose
    recorded optimal path survives on [Fewer] ({!Slrg.shrink}), and drops
    it on [Changed], so the next plan starts a fresh one. *)
type leveled_diff = Same | Fewer of int array | Changed

(** [leveled_diff ~old nw] classifies [nw] against [old] (see
    {!leveled_diff}).  [Fewer]'s map is built by a greedy embedding: each
    new action is matched with the first unmatched old action equal to it
    in those fields. *)
val leveled_diff : old:t -> t -> leveled_diff

val prop_label : t -> int -> string

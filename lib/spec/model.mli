(** The Component Placement Problem specification model.

    A CPP instance (paper section 2.1) is given by a network topology
    (see {!Sekitei_network.Topology}), a set of {e interface} types (data
    streams with quantitative properties such as bandwidth), a set of
    {e component} types that consume and produce interfaces, an initial
    state (pre-placed components such as the server), and a goal (e.g.
    "the Client component is placed on node 0").

    Formulae are {!Sekitei_expr.Expr} terms over dot-qualified variables:

    - ["T.ibw"] — property [ibw] of interface [T] (component formulae);
    - ["ibw"] — the crossing interface's own property (cross formulae);
    - ["node.cpu"] — available resource of the placement node;
    - ["link.lbw"] — available resource of the crossed link. *)

module Expr = Sekitei_expr.Expr

(** Degradability governs whether availability of a property value implies
    availability of smaller (degradable) or larger (upgradable) values
    (paper section 3.1); bandwidth supply is degradable. *)
type tag = Degradable | Upgradable | Neither

type property = {
  prop_name : string;
  prop_default : float;  (** value when no effect sets it, e.g. latency 0 *)
  prop_tag : tag;
}

type iface = {
  iface_name : string;
  properties : property list;
  cross_transforms : (string * Expr.t) list;
      (** per property: its value after crossing a link, e.g.
          [ibw := min(ibw, link.lbw)] *)
  cross_consumes : (string * Expr.t) list;
      (** link resources consumed by a crossing, e.g.
          [lbw -= min(ibw, link.lbw)] *)
  cross_conditions : Expr.cond list;
  cross_cost : Expr.t;  (** plan-cost contribution of one crossing *)
}

type component = {
  comp_name : string;
  requires : string list;  (** interface names consumed *)
  provides : string list;  (** interface names produced *)
  conditions : Expr.cond list;
  effects : (string * string * Expr.t) list;
      (** [(iface, property, value)] for provided interfaces *)
  consumes : (string * Expr.t) list;
      (** node resources consumed, e.g. [cpu -= (T.ibw + I.ibw)/5] *)
  place_cost : Expr.t;
  placeable : bool;
      (** pre-placed anchors (servers) are not placeable by the planner *)
}

type goal =
  | Placed of string * Sekitei_network.Topology.node_id
      (** component placed on node *)
  | Available of string * string * Sekitei_network.Topology.node_id * float
      (** [(iface, property, node, minimum)] *)

type app = {
  interfaces : iface list;
  components : component list;
  pre_placed : (string * Sekitei_network.Topology.node_id) list;
  goals : goal list;
}

(** {1 Constructors} *)

val property : ?default:float -> ?tag:tag -> string -> property

(** [iface name ~properties ...] with defaults: transform
    [p := min(p, link.lbw)] and consumption [lbw -= min(p, link.lbw)] for
    the first property, no conditions, cost [1 + p/10]. *)
val iface :
  ?cross_transforms:(string * Expr.t) list ->
  ?cross_consumes:(string * Expr.t) list ->
  ?cross_conditions:Expr.cond list ->
  ?cross_cost:Expr.t ->
  properties:property list ->
  string ->
  iface

val component :
  ?requires:string list ->
  ?provides:string list ->
  ?conditions:Expr.cond list ->
  ?effects:(string * string * Expr.t) list ->
  ?consumes:(string * Expr.t) list ->
  ?place_cost:Expr.t ->
  ?placeable:bool ->
  string ->
  component

(** {1 Lookup} *)

val find_iface : app -> string -> iface option
val find_component : app -> string -> component option
val find_property : iface -> string -> property option

(** The variable name a component formula uses for [prop] of [iface]. *)
val qualified : string -> string -> string

(** [split_var v] reads a formula variable back: ["iface.prop"] gives
    [("iface", "prop")], split at the first dot, the inverse of
    {!qualified}; the scopes ["node"] and ["link"] split the same way.
    A name without a dot is unqualified and gives [("", v)]; what an
    unqualified name means is up to the caller. *)
val split_var : string -> string * string

(** The distinguished quantitative property of an interface — its first
    one (always [ibw] in the paper's domain). *)
val primary_property : iface -> property

(** {1 Printing} *)

val pp_iface : Format.formatter -> iface -> unit
val pp_component : Format.formatter -> component -> unit
val pp_goal : Format.formatter -> goal -> unit

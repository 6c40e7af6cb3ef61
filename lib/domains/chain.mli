(** The Figure 5 cost-tradeoff domain.

    A text stream [T] (100 units supplied, 90 demanded) must reach the
    client.  Two routes exist: a three-link wide path usable by the raw
    stream, and a two-link narrow path (60 bandwidth units) that only fits
    the compressed stream [Z], requiring Zip/Unzip components.  Which plan
    is cheaper depends on the price of link bandwidth ([cross_weight],
    against node computation at a fixed [1 + bw/10]) — the planner must
    flip between the routes as the weight changes. *)

module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Topology = Sekitei_network.Topology

(** Nodes 0..4: server n0; wide path n0-n1-n2-n3; narrow path n0-n4-n3;
    client n3. *)
val topology : unit -> Topology.t

val app : ?cross_weight:float -> unit -> Model.app

(** Scenario-C-style levels on [T] (cutpoints 90, 100) with [Z] derived. *)
val leveling : Model.app -> Leveling.t

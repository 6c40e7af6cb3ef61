(** The paper's three evaluation networks (section 4.1).

    All share the resource distribution: LAN links 150 bandwidth units,
    WAN links 70, every node 30 CPU units; the server supplies up to 200
    units of the media stream and the client demands at least 90.

    - {e Tiny}: the two-node network of Figure 3 (one WAN link).
    - {e Small}: a six-node network whose server-client path crosses three
      LAN links and one WAN link (plus one off-path node), so the shortest
      plan ships [M] over the LANs (10 actions) while the optimal plan
      splits at the server (13 actions, Figure 9).
    - {e Large}: a 93-node transit-stub network in the image of the
      paper's GT-ITM-generated Figure 10, with the server and client in
      sibling stub domains one LAN hop from their gateways, so the
      shortest path is LAN-WAN-WAN-LAN. *)

module Topology = Sekitei_network.Topology
module Model = Sekitei_spec.Model

type t = {
  name : string;
  topo : Topology.t;
  server : Topology.node_id;
  client : Topology.node_id;
  app : Model.app;
}

val tiny : unit -> t
val small : unit -> t

(** [large ~seed ()] — deterministic for a given seed; the default seed is
    the one used throughout the benchmarks. *)
val large : ?seed:int64 -> unit -> t

val all : unit -> t list

(** Synthetic topology generators.

    The paper evaluates on three networks: a 2-node {e Tiny} instance, a
    6-node {e Small} LAN/WAN instance, and a 93-node {e Large} network
    produced by the GeorgiaTech ITM tool [Zegura et al., Infocom'96].  ITM
    is proprietary-era software; {!transit_stub} is our reimplementation of
    its transit-stub model (seeded, deterministic): a core of transit
    routers joined by WAN links, each sprouting stub domains of LAN-linked
    hosts.  All generators use the paper's resource defaults (CPU 30,
    LAN 150, WAN 70). *)

open Topology

(** [line n] is a chain of [n] nodes joined by LAN links. *)
val line : int -> t

(** [line_kinds kinds] is a chain whose [i]-th link has the given
    kind, e.g. [[Lan; Lan; Wan; Lan]] builds a 5-node path crossing one WAN
    link. *)
val line_kinds : link_kind list -> t

val ring : int -> t

(** [star n] has one hub (node 0) and [n] LAN-linked leaves. *)
val star : int -> t

(** [grid rows cols] is a LAN mesh. *)
val grid : int -> int -> t

(** [transit_stub ~rng ~transit ~stubs_per_transit ~stub_size ()] builds a
    two-tier GT-ITM-style network:

    - [transit] core routers joined into a ring plus random WAN chords;
    - each transit router attaches [stubs_per_transit] stub domains of
      [stub_size] hosts; each stub is a random connected LAN subgraph
      (spanning tree plus Waxman-probability extra edges) with one WAN
      uplink to its transit router.

    Total nodes: [transit * (1 + stubs_per_transit * stub_size)].
    The paper's Figure 10 network is [transit:3 ~stubs_per_transit:3
    ~stub_size:10] = 93 nodes. *)
val transit_stub :
  ?extra_edge_prob:float ->
  rng:Sekitei_util.Prng.t ->
  transit:int ->
  stubs_per_transit:int ->
  stub_size:int ->
  unit ->
  t

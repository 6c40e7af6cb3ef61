(** Network model: nodes with computational resources, links with
    communication resources.

    The CPP's environment (paper section 2.1) is a wide-area network whose
    nodes carry resources such as CPU and whose links carry resources such
    as bandwidth.  Links are undirected with capacity shared between
    directions; the paper's evaluation distinguishes LAN links (bandwidth
    150) from WAN links (bandwidth 70), and the Table 2 "reserved LAN bw"
    column aggregates consumption per link class.

    {b Stable identities.}  Node and link ids are {e persistent}: no
    mutation ({!Sekitei_network.Mutate}) ever renumbers a surviving id.
    Removing a link (directly or by failing an incident node) tombstones
    its id — the id keeps denoting that physical link forever, and every
    id-keyed accessor ({!get_link}, {!link_resource}, {!peer}) raises
    {!Stale_link} for it instead of silently aliasing a neighbor.  The
    iteration hot paths ({!links}, {!adjacent}) run over an internal
    dense view of the live links, so grounding/replay performance is
    unaffected by tombstones.  Failed nodes likewise stay resident (ids
    stable, resources zeroed by [Mutate.fail_node]) with their liveness
    exposed through {!node_alive}. *)

type node_id = int
type link_id = int
type link_kind = Lan | Wan

(** Raised by id-keyed link accessors for a link that existed but was
    removed by a mutation (tombstoned).  Ids that never existed raise
    [Invalid_argument] instead. *)
exception Stale_link of link_id

type node = {
  node_id : node_id;
  node_name : string;
  node_resources : (string * float) list;  (** e.g. [("cpu", 30.)] *)
}

type link = {
  link_id : link_id;
  ends : node_id * node_id;
  kind : link_kind;
  link_resources : (string * float) list;  (** e.g. [("lbw", 150.)] *)
}

type t

(** {1 Construction} *)

(** [make ~nodes ~links] builds a topology.  Node ids must be exactly
    [0 .. n-1]; link ids exactly [0 .. m-1]; link endpoints must be valid
    and distinct.  Everything starts live.
    @raise Invalid_argument otherwise. *)
val make : nodes:node list -> links:link list -> t

(** Convenience node/link constructors with the paper's defaults
    (CPU 30, LAN bandwidth 150, WAN bandwidth 70). *)
val node : ?cpu:float -> ?resources:(string * float) list -> int -> string -> node

val link :
  ?bw:float -> ?resources:(string * float) list -> link_kind -> int -> int -> int -> link

(** {1 Access} *)

val node_count : t -> int

(** Number of {e live} links. *)
val link_count : t -> int

(** Exclusive upper bound on every link id this topology has ever issued
    (live or tombstoned) — size arrays indexed by stable link id with
    this. *)
val link_id_bound : t -> int

(** All nodes, including failed ones (node ids are always stable). *)
val nodes : t -> node array

(** Dense view of the live links, in ascending stable-id order.  After a
    removal the array's index no longer equals [link_id] — iterate the
    records and use their [link_id] field. *)
val links : t -> link array

val get_node : t -> node_id -> node

(** [get_link t id] is the link with stable id [id].
    @raise Stale_link when the link was removed by a mutation.
    @raise Invalid_argument when [id] was never issued. *)
val get_link : t -> link_id -> link

(** Whether [id] currently denotes a live link ([false] for tombstoned
    and never-issued ids alike). *)
val link_is_live : t -> link_id -> bool

(** Tombstoned link ids, ascending. *)
val dead_links : t -> link_id list

(** Whether the node is live ([false] once it has failed).
    @raise Invalid_argument on out-of-range ids. *)
val node_alive : t -> node_id -> bool

(** Failed node ids, ascending. *)
val failed_nodes : t -> node_id list

(** Neighbours over live links only: [(peer, link_id)] list. *)
val adjacent : t -> node_id -> (node_id * link_id) list

(** [node_resource t id name] looks up a node resource.
    @raise Not_found when absent. *)
val node_resource : t -> node_id -> string -> float

(** [link_resource t id name] looks up a link resource.
    @raise Not_found when absent.
    @raise Stale_link on tombstoned ids. *)
val link_resource : t -> link_id -> string -> float

(** The other endpoint of a link.
    @raise Stale_link on tombstoned ids. *)
val peer : t -> link_id -> node_id -> node_id

(** Connectivity over live links; failed nodes (which have no live
    links) count, so a topology with a failed node is disconnected. *)
val is_connected : t -> bool

(** All resource names appearing on any node (resp. live link). *)
val node_resource_names : t -> string list

val link_resource_names : t -> string list

(** {1 Identity-stable mutation primitives}

    The persistent building blocks behind {!Sekitei_network.Mutate}; all
    return a new topology and never renumber an id.  Prefer [Mutate]'s
    higher-level operations in application code. *)

(** Replace a node's resource list.  @raise Invalid_argument on unknown
    ids. *)
val with_node_resources : t -> node_id -> (string * float) list -> t

(** Replace a link's resource list.  @raise Stale_link on tombstoned
    ids, [Invalid_argument] on never-issued ones. *)
val with_link_resources : t -> link_id -> (string * float) list -> t

(** Tombstone a link; its id keeps denoting the removed physical link
    and all id-keyed accessors raise {!Stale_link} for it from now on.
    @raise Stale_link when already removed. *)
val remove_link : t -> link_id -> t

(** Mark a node failed and tombstone its incident live links.  The node
    record itself stays resident (ids stable); idempotent on liveness.
    @raise Invalid_argument on out-of-range ids. *)
val mark_node_failed : t -> node_id -> t

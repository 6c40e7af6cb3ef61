(** Topology perturbations for adaptation experiments.

    Redeployment scenarios (paper section 6) start from "the environment
    changed": a link degraded, a node failed, capacity was re-provisioned.
    These functions derive a new topology from an existing one; they never
    mutate in place.

    {b Identities are stable.}  No operation here renumbers a node or
    link id: {!remove_link} and {!fail_node} tombstone the affected link
    ids ({!Sekitei_network.Topology.Stale_link} from then on) and every
    surviving link keeps its id.  Link ids held across any mutation
    therefore stay valid and keep denoting the same physical link —
    there is no translation map to apply.  Unknown ids raise instead of
    silently no-opping: [Invalid_argument] for ids that never existed,
    [Topology.Stale_link] for ids removed by an earlier mutation.
    Resource values must be finite and non-negative (NaN, infinities
    and negative values raise [Invalid_argument]), as in a spec's
    network block. *)

open Topology

(** [set_link_resource t link res v] returns a copy with the link's
    resource set (added if absent).
    @raise Stale_link on a removed link, [Invalid_argument] on a
    never-issued id or a non-finite or negative [v]. *)
val set_link_resource : t -> link_id -> string -> float -> t

(** [set_node_resource t node res v] likewise for a node.
    @raise Invalid_argument on unknown node ids or a non-finite or
    negative [v]. *)
val set_node_resource : t -> node_id -> string -> float -> t

(** [remove_link t link] tombstones a link.  The id keeps denoting the
    removed physical link; surviving links keep their ids unchanged.
    @raise Stale_link when the link was already removed,
    [Invalid_argument] on never-issued ids. *)
val remove_link : t -> link_id -> t

(** [fail_node t node] models a node failure: its resources all drop to
    0, every incident live link is tombstoned, and the node is marked
    dead ({!Sekitei_network.Topology.node_alive} returns [false]).  The
    node record itself remains; all ids stay stable.
    @raise Invalid_argument on unknown node ids. *)
val fail_node : t -> node_id -> t

(** Resource levels (paper section 3.1).

    A {e leveling} assigns each interface property and each node/link
    resource a list of cutpoints [c1 < c2 < ...], which induce the level
    intervals [[0,c1); [c1,c2); ...; [cn, inf)].  Unmentioned variables get
    the single level [[0, inf)] — with that leveling everywhere, the
    planner degenerates to the original greedy Sekitei (Table 1,
    scenario A). *)

module I = Sekitei_util.Interval

type t

val empty : t

(** [with_iface t iface prop cutpoints] adds interface-property cutpoints.
    @raise Invalid_argument unless strictly increasing and positive. *)
val with_iface : t -> string -> string -> float list -> t

(** [with_link t resource cutpoints] levels a link resource (Table 1
    scenario E levels ["lbw"] at 31 and 62). *)
val with_link : t -> string -> float list -> t

(** [with_node t resource cutpoints] levels a node resource. *)
val with_node : t -> string -> float list -> t

(** Level intervals for an interface property (singleton [full] when
    unleveled). *)
val iface_levels : t -> string -> string -> I.t list

val link_levels : t -> string -> I.t list
val node_levels : t -> string -> I.t list

(** Is anything actually leveled? *)
val is_trivial : t -> bool

val iface_cutpoints : t -> (string * string * float list) list
val link_cutpoints : t -> (string * float list) list
val node_cutpoints : t -> (string * float list) list

(** [propagate app t] derives cutpoints for interfaces reachable through
    component effects from the already-leveled ones ("bandwidth levels of
    T, I and Z are proportional to those of the M stream", Table 1): each
    seeded cutpoint is pushed through every component effect by point
    evaluation, iterated to a fixpoint.  Interfaces with explicit cutpoints
    keep them. *)
val propagate : Model.app -> t -> t

(** [suggest app] proposes cutpoints automatically, addressing the
    paper's open question of level choice (sections 4.3 and 6: "the good
    choice of levels depends on requirements of application components";
    "the choice of levels needs to be performed by a domain expert").

    The heuristic mirrors what the expert does in the paper's scenario C:
    for every interface property that some component condition or goal
    demands at least [d] of, emit cutpoints at [d] (so the demand becomes
    a level boundary), at [d * 1.1] (a slightly-above-demand operating
    band - the paper's "cut exactly around 90"), at the geometric mean of
    the largest demand and the supply, and at the supply itself.  Derived
    interfaces then get proportional levels via {!propagate}. *)
val suggest : Model.app -> t

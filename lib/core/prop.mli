(** Planning propositions with dense integer interning.

    The compiled planning problem (paper section 2.2) manipulates two kinds
    of propositions: [Placed(component, node)] and [Avail(iface, node,
    level)] — the interface's primary property is available at the node
    within the given level interval.  Both are interned into dense ids so
    the graph phases can use arrays. *)

type t =
  | Placed of int * int  (** (component index, node id) *)
  | Avail of int * int * int  (** (iface index, node id, level index) *)

type interner

(** [create ~n_comps ~n_nodes ~levels_per_iface] sizes the dense id space:
    ids [0 .. count-1] cover every possible proposition. *)
val create : n_comps:int -> n_nodes:int -> levels_per_iface:int array -> interner

val count : interner -> int
val id : interner -> t -> int
val of_id : interner -> int -> t

val placed_id : interner -> comp:int -> node:int -> int
val avail_id : interner -> iface:int -> node:int -> level:int -> int

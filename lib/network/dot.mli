(** Graphviz DOT export of topologies (reproduces the paper's Figure 10
    rendering input). *)

(** [to_dot ?highlight topo] renders an undirected graph; WAN links are
    drawn bold, nodes listed in [highlight] are filled. *)
val to_dot : ?highlight:Topology.node_id list -> Topology.t -> string

(** Write the DOT text, with nothing highlighted, to a file. *)
val write_file : Topology.t -> string -> unit

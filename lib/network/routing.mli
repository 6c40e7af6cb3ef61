(** Path-finding over topologies.

    The planner itself performs regression search, not routing; these
    utilities support scenario construction (pinning the server/client path
    structure of the paper's networks) and workload generation. *)

open Topology

type path = { hops : node_id list; path_links : link_id list }
(** [hops] lists the visited nodes (source first); [path_links] the
    traversed links, so [List.length hops = List.length path_links + 1]. *)

(** Fewest-hops path (BFS).  [None] when unreachable. *)
val shortest_path : t -> node_id -> node_id -> path option

(** Hop distance; [None] when unreachable. *)
val hop_distance : t -> node_id -> node_id -> int option

(** Deployment plans: the planner's output (paper Figure 4).

    A plan is the forward-ordered action sequence plus the metrics its
    validated execution produced (operating points, reserved bandwidth per
    link class, realized cost) and the cost lower bound the A* search
    optimized. *)

type t = {
  steps : Action.t list;  (** earliest action first *)
  cost_lb : float;  (** Table 2 "lower bound on cost" *)
  metrics : Replay.metrics;
}

val length : t -> int

(** Figure 4-style listing: "place Splitter on n0" / "cross with Z stream
    from n0 to n1". *)
val to_string : Problem.t -> t -> string

(** Step labels only (for compact test assertions). *)
val labels : t -> string list

(** Components placed by the plan, with their nodes. *)
val placements : Problem.t -> t -> (string * int) list

(** Links crossed by the plan: (iface name, src, dst). *)
val crossings : Problem.t -> t -> (string * int * int) list

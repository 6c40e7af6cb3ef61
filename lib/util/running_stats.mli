(** Streaming summary statistics (Welford's algorithm).

    Used by the benchmark harness to aggregate per-run planner timings and
    graph sizes across repetitions; {!percentile} also gives the
    heuristic-quality analysis its exact error percentiles. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val variance : t -> float
val stddev : t -> float
val min : t -> float
val max : t -> float
val total : t -> float

(** Convenience: statistics over a list in one pass. *)
val of_list : float list -> t

(** [percentile p xs] for [p] in [0,1]; linear interpolation on the sorted
    sample.  @raise Invalid_argument on an empty list or p outside [0,1]. *)
val percentile : float -> float list -> float

(** Streaming summary statistics: running mean and maximum.

    The heuristic-quality analysis reads its mean and maximum error from
    here, and its exact error percentiles from {!percentile}. *)

type t

(** [0.] when empty. *)
val mean : t -> float

(** [neg_infinity] when empty. *)
val max : t -> float

(** Statistics over a list, in one pass. *)
val of_list : float list -> t

(** [percentile p xs] for [p] in [0,1]; linear interpolation on the sorted
    sample.  @raise Invalid_argument on an empty list or p outside [0,1]. *)
val percentile : float -> float list -> float

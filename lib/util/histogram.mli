(** Log-bucketed (HDR/DDSketch-style) histograms with constant memory,
    exact counts, bounded relative error, and an associative merge.

    Built for always-on production metrics: recording a value is a
    handful of float operations plus one array increment, the footprint
    is bounded by the log of the tracked value range (independent of how
    many values are recorded), and two histograms recorded independently
    — by two worker domains, or two processes — merge into exactly the
    histogram a single recorder would have produced (bucket counts are
    integers, so merging is associative and commutative; only the
    floating-point [sum] accumulates in merge order).

    Buckets grow geometrically with ratio [gamma = (1+e)/(1-e)] where
    [e] is the configured relative error: any recorded value [v >= 1e-9]
    falls in the bucket [(gamma^(i-1), gamma^i]] and is later reported
    as the bucket's midpoint-in-ratio estimate, which is within [e * v]
    of [v].  Smaller values (including zero and negatives) are counted
    in a dedicated zero bucket and reported as [0.]. *)

type t

(** [create ?rel_error ()] — default relative error [0.01] (1%).
    @raise Invalid_argument unless [0 < rel_error < 1]. *)
val create : ?rel_error:float -> unit -> t

(** Record one value.  Never raises: non-finite values are counted in
    the zero bucket (NaN) or the extreme buckets (infinities are clamped
    to the tracked range ends and pollute [sum]; callers feeding
    unsanitized data should filter first). *)
val add : t -> float -> unit

(** Number of values recorded (conserved exactly under {!merge}). *)
val count : t -> int

(** Count of values that fell below [1e-9]. *)
val zero_count : t -> int

val sum : t -> float

(** Exact smallest/largest recorded value; [nan] when empty. *)
val min_value : t -> float

val max_value : t -> float

(** [sum / count]; [nan] when empty. *)
val mean : t -> float

(** [percentile t p] for [p] in [0,1]: the estimate of the sample order
    statistic at rank [round (p * (count - 1))].  The estimate is within
    [rel_error] (relative) of that sample value, and is additionally
    clamped to the exact recorded [\[min_value, max_value\]] range.
    @raise Invalid_argument on an empty histogram or [p] outside [0,1]. *)
val percentile : t -> float -> float

(** [merge a b] — a new histogram with [a] and [b]'s counts summed
    bucket-wise.  Associative and commutative on everything except the
    floating-point [sum] (within rounding).  Neither input is mutated.
    @raise Invalid_argument when the two relative errors differ. *)
val merge : t -> t -> t

(** Deep copy (mutating the copy leaves the original untouched). *)
val copy : t -> t

(** Non-empty buckets, ascending: [(lo, hi, count)] with the bucket
    holding values in [(lo, hi]].  The zero bucket, when non-empty, is
    reported first as [(0., 0., n)].  Feeds the Prometheus/JSON
    exposition encoders and the merge/associativity tests. *)
val buckets : t -> (float * float * int) list

(** Upper bucket bounds only, with {e cumulative} counts — the shape
    Prometheus histogram exposition wants ([le] buckets). *)
val cumulative : t -> (float * int) list

(** Log-bucketed (HDR/DDSketch-style) histograms with constant memory,
    exact counts and bounded relative error.

    Built for always-on production metrics: recording a value is a
    handful of float operations plus one array increment, and the
    footprint is bounded by the log of the tracked value range
    (independent of how many values are recorded).

    Buckets grow geometrically with ratio [gamma = (1+e)/(1-e)] where
    [e] is the relative error, fixed at 1%: any recorded value
    [v >= 1e-9] falls in the bucket [(gamma^(i-1), gamma^i]] and is later
    reported as the bucket's midpoint-in-ratio estimate, which is within
    [e * v] of [v].  Smaller values (including zero and negatives) are counted
    in a dedicated zero bucket and reported as [0.]. *)

type t

(** An empty histogram. *)
val create : unit -> t

(** Record one value.  Never raises: non-finite values are counted in
    the zero bucket (NaN) or the extreme buckets (infinities are clamped
    to the tracked range ends and pollute [sum]; callers feeding
    unsanitized data should filter first). *)
val add : t -> float -> unit

(** Number of values recorded. *)
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
    1% (relative) of that sample value, and is additionally
    clamped to the exact recorded [\[min_value, max_value\]] range.
    @raise Invalid_argument on an empty histogram or [p] outside [0,1]. *)
val percentile : t -> float -> float

(** Deep copy (mutating the copy leaves the original untouched). *)
val copy : t -> t

(** Non-empty buckets, ascending: [(lo, hi, count)] with the bucket
    holding values in [(lo, hi]].  The zero bucket, when non-empty, is
    reported first as [(0., 0., n)]. *)
val buckets : t -> (float * float * int) list

(** Upper bucket bounds only, with {e cumulative} counts — the shape
    Prometheus histogram exposition wants ([le] buckets). *)
val cumulative : t -> (float * int) list

(** Half-open real intervals [lo, hi), with [hi] possibly infinite.

    Intervals are the core abstraction behind resource levels and optimistic
    resource maps (paper sections 3.1 and 3.2.3).  A level with cutpoints
    [90; 100] yields the interval [90, 100); its {e operating point} is the
    upper cutpoint (the throttle value the deployed system runs at), and its
    {e infimum} is used for admissible cost lower bounds. *)

type t = private { lo : float; hi : float }

exception Empty_interval

(** [make lo hi] is the interval [lo, hi).  @raise Empty_interval when
    [hi <= lo] or either bound is NaN. *)
val make : float -> float -> t

(** [make_opt lo hi] is [Some (make lo hi)], or [None] when empty. *)
val make_opt : float -> float -> t option

(** The full interval [0, infinity) — the default level of an unleveled
    resource. *)
val full : t

(** [point x] is a degenerate closed interval containing exactly [x],
    represented as [x, x] (the only closed intervals we allow). *)
val point : float -> t

val lo : t -> float
val hi : t -> float

(** [is_point i] is true for degenerate intervals produced by {!point}. *)
val is_point : t -> bool

(** Membership under half-open semantics: [lo <= x < hi], except points,
    where [x = lo]. *)
val mem : float -> t -> bool

(** The throttle value a deployment operates at inside this interval:
    [hi] when finite, otherwise [cap].  [cap] must be finite. *)
val operating_point : cap:float -> t -> float

(** Intersection; [None] when the result is empty. *)
val inter : t -> t -> t option

(** Convex hull (smallest interval containing both). *)
val hull : t -> t -> t

val equal : t -> t -> bool
val subset : t -> t -> bool
val overlaps : t -> t -> bool

(** Interval arithmetic.  All functions return the exact image interval for
    the (monotone) operation. *)

val add : t -> t -> t
val sub : t -> t -> t

(** [scale k i] multiplies by a non-negative constant [k]. *)
val scale : float -> t -> t

(** [shift c i] translates by [c]. *)
val shift : float -> t -> t

(** Pointwise min/max against a scalar (e.g. capacity capping
    [min(M.ibw, Link.lbw)]). *)
val min_scalar : float -> t -> t
val max_scalar : float -> t -> t

(** Pointwise binary min/max of intervals. *)
val min_ : t -> t -> t
val max_ : t -> t -> t

(** Satisfiability of comparisons: does some [x] in the interval satisfy the
    relation against [c]? *)

val sat_ge : t -> float -> bool
val sat_gt : t -> float -> bool
val sat_le : t -> float -> bool
val sat_lt : t -> float -> bool

(** [sat_eq a b] — can values drawn from [a] and [b] be equal? *)
val sat_eq : t -> t -> bool

val width : t -> float
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** [of_points xs] is the smallest interval containing every point in [xs]
    (a point interval when all coincide).  Upper bounds may be infinite.
    @raise Invalid_argument on an empty list, NaN, or an infinite lower
    bound. *)
val of_points : float list -> t

(** [of_extremes lo hi] is [of_points xs] for a point set [xs] whose
    minimum is [lo] and maximum [hi], without building the list (the
    interval-arithmetic corners of {!Sekitei_expr.Expr}).
    @raise Invalid_argument like [of_points], or when [hi < lo]. *)
val of_extremes : float -> float -> t

(** [of_cutpoints cuts] turns a sorted list of strictly positive cutpoints
    [c1 < c2 < ...] into levels [[0,c1); [c1,c2); ...; [cn, inf)].
    An empty list yields [[full]].
    @raise Invalid_argument if the cutpoints are not strictly increasing and
    positive. *)
val of_cutpoints : float list -> t list

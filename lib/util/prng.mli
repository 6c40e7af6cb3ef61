(** Deterministic splitmix64 pseudo-random number generator.

    Topology generation (the paper's GT-ITM-generated 93-node network,
    Figure 10) must be reproducible, so all randomness in the repository
    flows through explicitly seeded instances of this generator. *)

type t

val create : seed:int64 -> t

(** Independent child stream (split). *)
val split : t -> t

(** Uniform 64-bit value. *)
val next : t -> int64

(** [int t n] is uniform in [0, n).  @raise Invalid_argument if [n <= 0]. *)
val int : t -> int -> int

(** [float t x] is uniform in [0, x). *)
val float : t -> float -> float

(** [bool t p] is true with probability [p]. *)
val bool : t -> float -> bool

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** [sample t k xs] draws [k] distinct elements (reservoir order preserved
    by index).  @raise Invalid_argument when [k > List.length xs]. *)
val sample : t -> int -> 'a list -> 'a list

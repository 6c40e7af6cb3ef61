(** Cooperative deadline/cancellation tokens for bounded planning.

    A token carries a predicate the planner phases poll at their loop
    heads; when it reports expiry the phase returns gracefully with the
    best evidence gathered so far (or raises {!Expired} where no partial
    answer is meaningful, e.g. mid-compilation).  Tokens are never
    preemptive — a phase that stops polling runs to completion.

    {!none} is free (one physical comparison per poll), so the phases
    thread a token unconditionally. *)

type t

(** Raised by {!guard} — and by phases without a partial result — when
    the token has expired; the payload names the phase that gave up. *)
exception Expired of string

(** The non-expiring token. *)
val none : t

(** [after_ms ms] expires once [ms] milliseconds of monotonic
    ({!Timer}) wall time have passed since the call.  Raises
    [Invalid_argument] on a negative or NaN budget. *)
val after_ms : float -> t

(** [counting n] expires on the [n+1]-th poll — deterministic expiry for
    tests that must stop a search mid-flight regardless of machine
    speed. *)
val counting : int -> t

(** Poll the token.  [expired none] is [false] and costs one branch. *)
val expired : t -> bool

(** [guard d ~phase] raises [Expired phase] when [d] has expired. *)
val guard : t -> phase:string -> unit

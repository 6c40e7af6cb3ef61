(** Fixed-size domain pool for shared-nothing batch parallelism
    (OCaml 5 multicore).

    Built for the planner's batch executor: work items are independent
    and their run times vary wildly, so workers pull items off a shared
    atomic counter (dynamic load balancing) while results land in
    per-index slots (output order is always input order). *)

(** [Domain.recommended_domain_count ()] — the default worker count used
    by {!map} and the planner's batch entry points. *)
val default_jobs : unit -> int

(** [map ~jobs f xs] is [List.map f xs] computed by up to [jobs] domains
    ([jobs - 1] spawned plus the calling one), clamped to
    [List.length xs].  Results are returned in input order.

    If any application of [f] raises, all items still drain (workers are
    always joined), then the exception of the {e earliest-index} failure
    is re-raised with its original backtrace — a deterministic choice
    independent of domain scheduling.

    [jobs <= 1] (or a singleton/empty [xs]) runs a plain sequential
    [List.map] on the calling domain: no domains are spawned, making
    [~jobs:1] the exact sequential semantics.

    [f] must be safe to run on multiple domains at once: it must not
    share mutable state between items (or must synchronize it itself). *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

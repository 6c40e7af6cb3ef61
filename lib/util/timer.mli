(** Monotonic timing helpers for planner-phase instrumentation.

    The paper's Table 2 reports total planning time and search-only time
    separately; the planner threads one {!t} per phase and the telemetry
    subsystem stamps every event with {!now_s}-derived offsets.

    Backed by [clock_gettime(CLOCK_MONOTONIC)] — wall-clock sources like
    [Unix.gettimeofday] can go backwards under NTP adjustment, which
    would corrupt durations.  Elapsed values are additionally clamped at
    0 so no consumer ever sees a negative duration. *)

type t

(** Current monotonic time in seconds (arbitrary origin — only
    differences are meaningful). *)
val now_s : unit -> float

val start : unit -> t

(** Elapsed milliseconds since [start] (the paper reports ms). *)
val elapsed_ms : t -> float

(** [time f] runs [f ()] and returns its result with elapsed milliseconds. *)
val time : (unit -> 'a) -> 'a * float

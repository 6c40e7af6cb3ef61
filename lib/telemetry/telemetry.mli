(** Tracing and metrics for the planner phases.

    A {!t} is a handle threaded through {!Sekitei_core}'s phases
    ([compile], [plrg], [slrg], [rg], [replay]).  The phases wrap their
    work in {e spans} (well-nested, monotonically timestamped via
    {!Sekitei_util.Timer}) and emit periodic search {e progress} events;
    everything is delivered to pluggable {e sinks}.

    The default handle is {!null}: no sinks.  Every emitting operation
    begins with a single empty-sinks branch, so instrumented hot loops
    pay one branch per emit when tracing is off.  Span handles carry real
    monotonic start times even under {!null} — {!end_span} always returns
    the true duration — because {!Sekitei_core.Planner}'s per-phase
    report is populated from spans whether or not a sink listens.

    The handle keeps no counts.  A request's counts live in its
    {!Sekitei_core.Session.report}; the session emits them as [Counter]
    and [Gauge] events once the request is finished. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type event =
  | Span_begin of { id : int; parent : int; name : string; t_ms : float }
      (** [parent] is 0 for root spans; ids start at 1. *)
  | Span_end of {
      id : int;
      name : string;
      t_ms : float;
      dur_ms : float;
      attrs : (string * value) list;
    }
  | Counter of { name : string; total : int; t_ms : float }
      (** one request's value of a count, emitted once per plan *)
  | Gauge of { name : string; value : float; t_ms : float }
  | Progress of { name : string; t_ms : float; attrs : (string * value) list }
      (** periodic search heartbeat (open-list size, best f, ...) *)

type sink = { emit : event -> unit; close : unit -> unit }

(** {1 Flight recorder}

    A fixed-capacity ring of the most recent telemetry events.  Arming
    one on a handle (see {!create}) activates event generation even with
    no sinks attached, but recording an event is a single array store —
    no channel, no allocation — so the recorder is safe to leave on in
    production.  When a plan fails, the planner dumps the ring as JSONL
    (readable by [tools/trace_report]) for a postmortem of the moments
    before the failure. *)
module Flight : sig
  type t

  (** [create ?capacity ?dump_path ()] — ring holding the last
      [capacity] (default 512) events.  [dump_path] is where
      {!dump_to_path} writes (the planner's failure hook dumps there
      automatically when set).
      @raise Invalid_argument when [capacity < 1]. *)
  val create : ?capacity:int -> ?dump_path:string -> unit -> t

  val capacity : t -> int

  (** Events ever recorded (not capped at capacity). *)
  val recorded : t -> int

  val dump_path : t -> string option
  val record : t -> event -> unit

  (** The retained events, oldest first — the last
      [min recorded capacity] recorded. *)
  val events : t -> event list

  (** JSONL dump: one meta line
      [{"ev":"flight_dump","capacity":..,"recorded":..,"dropped":..}]
      followed by the retained events, oldest first.  Flushes [oc]. *)
  val dump : t -> out_channel -> unit

  (** {!dump} to [dump_path] (truncating); [None] when no path is set,
      otherwise the path written. *)
  val dump_to_path : t -> string option
end

type t

(** The default: no sinks, no flight recorder, near-zero overhead. *)
val null : t

(** [create sinks] starts the monotonic origin clock now.  The RG search
    emits a {!progress} heartbeat every 1000 expansions.  [flight] arms a
    flight recorder: every event emitted to the sinks is also recorded
    in the ring, and events are generated even when [sinks] is empty. *)
val create : ?flight:Flight.t -> sink list -> t

(** True when any sink or a flight recorder is attached. *)
val enabled : t -> bool

(** The armed flight recorder, if any (for failure-path dumps). *)
val flight : t -> Flight.t option

(** The RG heartbeat interval: 1000 expansions, or 0 when the handle is
    not {!enabled} (callers skip the modulo entirely). *)
val progress_interval : t -> int

(** Milliseconds since {!create} (event timestamps use this origin). *)
val elapsed_ms : t -> float

(** {1 Spans} *)

type span

(** Opens a span nested under the innermost open span. *)
val begin_span : t -> string -> span

(** Closes the span and returns its duration in ms (also meaningful under
    {!null}).  [attrs] land on the [Span_end] event.

    Well-known attrs: the planner's ["plan"] span ends with
    [("ok", Bool)] for the outcome, and on failure additionally
    [("failure", Str)] — the {!Sekitei_core.Planner.pp_failure}-rendered
    reason — so trace consumers (e.g. tools/trace_report) can surface
    why a traced run returned no plan without linking the core library;
    a session ["compile"] span triggered by an update carries
    [("invalidated", Int)], the actions it could not reuse. *)
val end_span : ?attrs:(string * value) list -> t -> span -> float

(** [with_span t name f] runs [f] inside a span; the span is closed even
    when [f] raises. *)
val with_span : ?attrs:(string * value) list -> t -> string -> (unit -> 'a) -> 'a

(** {1 Counters, gauges, progress} *)

(** [count t name total] emits one [Counter] event at once; a no-op
    unless the handle is {!enabled}. *)
val count : t -> string -> int -> unit

val gauge : t -> string -> float -> unit
val progress : t -> string -> (string * value) list -> unit

(** Close every sink. *)
val close : t -> unit

(** {1 Sinks} *)

(** Custom sink from an event callback. *)
val sink : ?close:(unit -> unit) -> (event -> unit) -> sink

(** In-memory sink for tests and reports: returns the sink and a function
    yielding the events captured so far, in emission order. *)
val memory : unit -> sink * (unit -> event list)

(** [locked s] wraps [s] so that [emit] and [close] hold a private mutex
    — a sink shared by several domains (e.g. one JSONL channel receiving
    events from the batch planner's workers) must be wrapped or its
    events interleave mid-line.  Events from different domains arrive in
    lock-acquisition order, which is {e not} deterministic; per-worker
    {!memory} sinks are the alternative when order matters. *)
val locked : sink -> sink

(** One compact JSON object per event, one per line (JSONL).  The
    channel is flushed after every [Progress] event (so tailing a live
    trace of a long search shows the heartbeats as they happen), after
    every root [Span_end] (so short traced runs are never lost in the
    channel buffer), and on [close].  [close] flushes but does not close
    the channel. *)
val jsonl : out_channel -> sink

(** The JSONL encoding, exposed for the trace-report tool and tests. *)
val json_of_event : event -> Sekitei_util.Json.t

(** Named metric registry — counters, last-value gauges, and
    {!Sekitei_util.Histogram} latency/size distributions.

    One mutex guards the three name-keyed tables.  Each recording call
    takes it once, so several domains may record into one registry and
    the totals come out exact.  {!snapshot} copies the tables under the
    same lock. *)

type t

(** An empty registry.  Its histograms have
    {!Sekitei_util.Histogram}'s 1% relative error. *)
val create : unit -> t

(** {1 Recording} — each call finds or creates the named metric. *)

(** Add [n] to the named counter. *)
val count : t -> string -> int -> unit

(** Set the named gauge; a snapshot holds the latest value. *)
val set_gauge : t -> string -> float -> unit

(** Record one sample in the named histogram. *)
val observe_ms : t -> string -> float -> unit

(** {1 Snapshots} *)

type snapshot

(** A copy of every metric: recording after it leaves it unchanged. *)
val snapshot : t -> snapshot

(** Each accessor returns entries sorted by metric name. *)
val counters : snapshot -> (string * int) list

val gauges : snapshot -> (string * float) list
val histograms : snapshot -> (string * Sekitei_util.Histogram.t) list

(** 0 for unknown names. *)
val counter_value : snapshot -> string -> int

val gauge_value : snapshot -> string -> float option
val histogram_value : snapshot -> string -> Sekitei_util.Histogram.t option

(** Named metric registry — counters, last-value gauges, and
    {!Sekitei_util.Histogram} latency/size distributions — with
    per-domain shards.

    Handles resolve to the {e calling} domain's shard, so each
    [Domain_pool] worker records into private cells and never contends:
    {!count} bumps an [int ref], {!observe} is a histogram array store,
    {!set_gauge} a ref store.  Locks guard only structure (shard/metric
    creation, snapshot walks), never the recording fast path.

    {!snapshot} merges every shard into one coherent view: counters sum,
    histograms merge (associatively — see {!Sekitei_util.Histogram}),
    gauges keep the most recent write program-wide.  A snapshot taken
    while other domains are mid-record may miss in-flight increments;
    once recorders are quiescent it is exact, equal to what
    single-domain recording would have produced.

    A handle is bound to the domain that created it — create handles
    from the domain that will record on them (sharing one handle across
    domains reintroduces the data race the shards exist to avoid). *)

type t

(** An empty registry.  Its histograms have
    {!Sekitei_util.Histogram}'s 1% relative error. *)
val create : unit -> t

(** {1 Recording} *)

type histogram

(** Find-or-create the named histogram in the calling domain's shard. *)
val histogram : t -> string -> histogram

val observe : histogram -> float -> unit

(** {1 Name-resolved conveniences} — one-shot record on cold paths
    (resolve shard + metric per call). *)

val count : t -> string -> int -> unit

val set_gauge : t -> string -> float -> unit
val observe_ms : t -> string -> float -> unit

(** {1 Snapshots} *)

type snapshot

val snapshot : t -> snapshot

(** Each accessor returns entries sorted by metric name. *)
val counters : snapshot -> (string * int) list

val gauges : snapshot -> (string * float) list
val histograms : snapshot -> (string * Sekitei_util.Histogram.t) list

(** 0 for unknown names. *)
val counter_value : snapshot -> string -> int

val gauge_value : snapshot -> string -> float option
val histogram_value : snapshot -> string -> Sekitei_util.Histogram.t option

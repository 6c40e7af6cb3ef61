(** Imperative binary min-heap with float priorities and deterministic
    tie-breaking.

    The planner's A* searches (SLRG and RG, paper section 3.2) must be
    reproducible run-to-run, so equal priorities are broken by insertion
    order (FIFO).

    Entries are stored as parallel arrays (values, and flat float arrays
    for the two priorities), so the accessors below allocate nothing: a
    search loop reads the minimum's priority and sequence number with
    {!top_prio} and {!top_seq} and removes it with {!pop_value}.  Slots
    past {!length} may keep popped values reachable until they are
    overwritten; a heap lives as long as its search, or is {!reset} for
    the next one. *)

type 'a t

(** [create ()] is an empty heap; it grows by doubling. *)
val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

(** [add h ~prio ?prio2 ?seq x] inserts [x] with priority [prio]; [prio2]
    (default 0) breaks priority ties before insertion order — A* searches
    pass [-g] to prefer deeper nodes on f-plateaus.  [seq] overrides the
    final insertion-order tie key, which by default is {!insertions}
    [h] read before the add: a search that removes and re-inserts an
    entry with a corrected priority passes the entry's original sequence
    number so deterministic tie-breaking is preserved across the
    re-insertion (deferred heuristic evaluation relies on this).  Raises
    [Invalid_argument] when either priority is NaN (a NaN would poison
    the ordering comparisons and silently corrupt the heap). *)
val add : 'a t -> prio:float -> ?prio2:float -> ?seq:int -> 'a -> unit

(** Priority of the minimum entry (the order is [(prio, prio2, seq)]
    lexicographic).  Raises [Invalid_argument] when empty. *)
val top_prio : 'a t -> float

(** Sequence number of the minimum entry — the [seq] it was added with.
    Raises [Invalid_argument] when empty. *)
val top_seq : 'a t -> int

(** Remove the minimum entry and return its value.  Raises
    [Invalid_argument] when empty. *)
val pop_value : 'a t -> 'a

(** Empty the heap and restart {!insertions} at 0, keeping the arrays'
    capacity — one heap serves every solve of a long-lived search. *)
val reset : 'a t -> unit

(** Number of insertions since {!create} or the last {!reset}: the
    sequence number the next default-keyed {!add} assigns. *)
val insertions : 'a t -> int

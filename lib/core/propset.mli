(** Canonical proposition sets, hash-consed handles, and fast regression.

    Both graph search phases (SLRG and RG) regress over {e sets} of pending
    propositions represented as canonical int arrays: sorted ascending,
    duplicate-free, with initially-true propositions dropped.  This module
    centralizes the representation so the two phases share one
    [Int.compare]-specialized implementation (no polymorphic [compare])
    and one precomputed per-action regression table.

    On top of the raw arrays the module hash-conses: a per-{!ctx}
    {!Interner} maps each distinct canonical array to a unique physical
    representative and a dense {!handle} id.  Search structures index
    flat arrays by that id (the SLRG solved/bound/h_max caches and its
    epoch-stamped per-query g/parent arrays, the {!Supports} candidate
    and successor rows) or hash a single int (the RG duplicate table)
    instead of re-walking the set on every probe.  The FNV walk over a
    set's elements runs when a set is interned — for the search, on the
    first read of each regression edge (see {!regress_intern}), whose
    result the {!Supports} successor rows then keep. *)

(** [canonical pb props] sorts, deduplicates and drops initially-true
    propositions. *)
val canonical : Problem.t -> int list -> int array

(** [canonical_array pb props] is {!canonical} over an array (the input is
    not mutated). *)
val canonical_array : Problem.t -> int array -> int array

(** An interned canonical set: [id] is dense (0, 1, 2, ... in first-seen
    order per interner) and [set] is the unique physical representative
    array — two handles [h1], [h2] of one interner have
    [h1.id = h2.id] exactly when their sets are equal.  The array must
    not be mutated. *)
type handle = { id : int; set : int array }

(** A handle no interner returns (id [-1]): the sentinel for an absent
    entry in arrays of handles, compared physically. *)
val no_handle : handle

(** Open-addressing hash-consing table over the dense ids: each id's
    hash is stored, so a lookup compares elements only on a hash match
    and growing the table never re-walks a set. *)
module Interner : sig
  type t

  val create : unit -> t

  (** [intern t set] returns the handle of [set] (which must be
      canonical), allocating a fresh dense id on first sight.  The array
      is adopted as the representative when new — do not mutate it. *)
  val intern : t -> int array -> handle

  (** Number of distinct sets interned so far (= the next fresh id). *)
  val size : t -> int

  (** [get t id] — the handle registered under [id].  Raises
      [Invalid_argument] on an unknown id. *)
  val get : t -> int -> handle
end

(** Per-problem regression tables: each action's precondition set
    pre-canonicalized, so that with the add-closure (strictly increasing
    as emitted, see {!Action.t}) a regression step is a linear merge
    instead of quadratic scans.
    Also owns the {!Interner} and the merge buffer of
    {!regress_intern} — share one [ctx] across the SLRG oracle and the
    RG search of a query so their handle ids agree.  Each distinct
    regression edge is computed once per ctx binding by the successor
    rows of {!Supports}, not here. *)
type ctx

val make_ctx : Problem.t -> ctx

(** [refresh_ctx ~map ctx pb] rebinds the ctx to a recompiled problem
    with fewer actions ({!Problem.leveled_diff}'s [Fewer map]): the
    interner — and with it every dense handle id — is kept, because
    proposition ids are stable across topology deltas, and the
    per-action regression tables, keyed by action ids the recompile
    renumbers, move through [map] (old action id to new id, [-1] when
    gone).  Every old action [a] with [map.(a) >= 0] must be field-equal
    to new action [map.(a)], and every new action must have such an old
    one.  [pb.init] must equal the init array the ctx was created with,
    since it decides what "canonical" means; [Fewer] guarantees both. *)
val refresh_ctx : map:int array -> ctx -> Problem.t -> unit

(** Intern a canonical set in the ctx's interner. *)
val intern : ctx -> int array -> handle

(** The handle registered under a dense id of this ctx's interner. *)
val handle_of_id : ctx -> int -> handle

(** Distinct sets interned in this ctx so far. *)
val interned_count : ctx -> int

(** [regress_intern ctx set a] is the handle of the canonical set
    [(set \ add_closure a) ∪ pre a]: the propositions still pending after
    deciding that [a] closes the plan suffix.  [set] must be canonical.
    The merge is written into the ctx's scratch buffer and looked up from
    there; only a set seen for the first time is copied out (and gets
    the next dense id), so a lookup of a known set allocates nothing.
    Not reentrant (one shared buffer), like the searches that call it. *)
val regress_intern : ctx -> int array -> Action.t -> handle

(** Canonical proposition sets, hash-consed handles, and fast regression.

    Both graph search phases (SLRG and RG) regress over {e sets} of pending
    propositions represented as canonical int arrays: sorted ascending,
    duplicate-free, with initially-true propositions dropped.  This module
    centralizes the representation so the two phases share one
    [Int.compare]-specialized implementation (no polymorphic [compare]),
    one hash function, and one precomputed per-action regression table.

    On top of the raw arrays the module hash-conses: a per-{!ctx}
    {!Interner} maps each distinct canonical array to a unique physical
    representative and a dense {!handle} id.  Search structures index
    flat arrays by that id (the SLRG solved/bound/h_max caches and its
    epoch-stamped per-query g/parent arrays, the {!Supports} candidate
    and successor rows) or hash a single int (the RG duplicate table)
    instead of re-walking the set on every probe — the FNV sweep runs
    once per distinct set, at interning time. *)

(** [canonical pb props] sorts, deduplicates and drops initially-true
    propositions. *)
val canonical : Problem.t -> int list -> int array

(** [canonical_array pb props] is {!canonical} over an array (the input is
    not mutated). *)
val canonical_array : Problem.t -> int array -> int array

(** Structural equality of canonical sets (length + element loop, no
    polymorphic compare). *)
val equal : int array -> int array -> bool

(** FNV-1a style hash of a canonical set. *)
val hash : int array -> int

(** [mem set p] — membership in a canonical (sorted) set, by binary
    search. *)
val mem : int array -> int -> bool

(** Hash table keyed structurally by canonical sets (hash walks the
    array).  Prefer id-keyed tables over interned {!handle}s on hot
    paths; this stays for callers without an interner at hand. *)
module Tbl : Hashtbl.S with type key = int array

(** An interned canonical set: [id] is dense (0, 1, 2, ... in first-seen
    order per interner) and [set] is the unique physical representative
    array — two handles of one interner satisfy
    [h1.id = h2.id  <=>  Propset.equal h1.set h2.set].  The array must
    not be mutated. *)
type handle = { id : int; set : int array }

(** A handle no interner returns (id [-1]): the sentinel for an absent
    entry in arrays of handles, compared physically. *)
val no_handle : handle

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

(** Per-problem regression tables: each action's add-closure and
    precondition set pre-sorted (and the preconditions pre-canonicalized)
    so a regression step is a linear merge instead of quadratic scans.
    Also owns the {!Interner} — share one [ctx] across the SLRG oracle
    and the RG search of a query so their handle ids agree.  Each
    distinct regression edge is computed once per ctx binding by the
    successor rows of {!Supports}, not here. *)
type ctx

val make_ctx : Problem.t -> ctx

(** [refresh_ctx ctx pb] rebinds the ctx to a recompiled problem: the
    per-action regression tables are rebuilt (they are keyed by action
    ids, which recompilation renumbers), while the interner — and with it
    every dense handle id — is kept, because proposition ids are stable
    across topology deltas.  The caller must ensure [pb.init] equals the
    init array the ctx was created with; a changed initial section
    changes canonicalization itself and requires a fresh ctx ({!Session}
    checks this and rebuilds from scratch on a mismatch). *)
val refresh_ctx : ctx -> Problem.t -> unit

(** Intern a canonical set in the ctx's interner. *)
val intern : ctx -> int array -> handle

(** The handle registered under a dense id of this ctx's interner. *)
val handle_of_id : ctx -> int -> handle

(** Distinct sets interned in this ctx so far. *)
val interned_count : ctx -> int

(** [regress ctx set a] is the canonical set
    [(set \ add_closure a) ∪ pre a]: the propositions still pending after
    deciding that [a] closes the plan suffix.  [set] must be canonical;
    the result is canonical (raw arrays, no interning). *)
val regress : ctx -> int array -> Action.t -> int array

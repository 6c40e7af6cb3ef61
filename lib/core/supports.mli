(** Relevant-supports tables shared by the SLRG and RG regression searches.

    Both phases expand a pending proposition set by the distinct
    PLRG-relevant actions supporting any of its propositions.  This module
    owns the single filtered, [Int.compare]-sorted per-proposition table
    and the scratch bitmap used for deduplication, so the two phases run
    the identical branching rule.

    It also owns the expansion rows of interned sets, indexed by dense
    set id: per set, the candidate array and a parallel row of successor
    handles (the set regressed through each candidate), each computed
    the first time a search reads it and served by array loads after
    that.  Rows live as long as the [t]; {!Slrg.refresh} builds a fresh
    [t] for a recompiled problem, whose action ids differ. *)

type t

(** [make ctx pb plrg] filters [pb.supports] down to the PLRG-relevant
    actions, sorted ascending per proposition.  Successor rows regress
    and intern through [ctx], which must be bound to [pb]. *)
val make : Propset.ctx -> Problem.t -> Plrg.t -> t

(** [candidates t h] is the ascending array of distinct relevant action
    ids supporting at least one proposition of [h]'s set, computed on
    the first call for [h]'s id and returned as the same array after
    that.  [h] must come from the ctx given to {!make}; the caller must
    not mutate the result.  Not reentrant (one shared scratch bitmap),
    like the searches that call it. *)
val candidates : t -> Propset.handle -> int array

(** [successor t h i] is the interned
    [Propset.regress ctx h.set a] for [a] the [i]-th action of
    [candidates t h].  The slot is filled on its first read (so a set is
    interned exactly when a search first needs it) and every later read
    returns the physically same handle. *)
val successor : t -> Propset.handle -> int -> Propset.handle

(** [taint pb ~node_touched ~link_touched] computes the invalidation
    cone of a topology delta as a worklist fixpoint over the reverse
    (proposition -> consuming action) index: actions grounded at a
    touched node/link are tainted, their add-closure propositions become
    dirty, and actions with a dirty precondition are tainted in turn.
    Returns [(tainted, dirty)] — bool arrays over action ids and
    proposition ids.  Soundness invariant for cache eviction: a cached
    value over a set with no dirty proposition only ever regresses
    through untainted actions, which are identical in the old and new
    problems.  Callers apply this to both the pre- and post-delta
    problems and take the union (a delta can both remove and create
    grounded actions).  Link ids are stable across mutations, so the
    same [link_touched] predicate serves both problems — a tombstoned
    link's id still names it in the old problem's actions and never
    occurs in the new one. *)
val taint :
  Problem.t ->
  node_touched:(int -> bool) ->
  link_touched:(int -> bool) ->
  bool array * bool array

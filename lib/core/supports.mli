(** Relevant-supports tables shared by the SLRG and RG regression searches.

    Both phases expand a pending proposition set by the distinct
    PLRG-relevant actions supporting any of its propositions.  This module
    owns the single filtered, [Int.compare]-sorted per-proposition table
    and the scratch bitmap and row used to gather a set's distinct
    candidates, so the two phases run the identical branching rule.

    It also owns the expansion rows of interned sets, indexed by dense
    set id: per set, the candidate array and a parallel row of successor
    handles (the set regressed through each candidate), each computed
    the first time a search reads it and served by array loads after
    that, with no allocation.  Rows live as long as the [t].
    {!Slrg.shrink} builds a fresh [t] for a recompiled problem with
    fewer actions, whose ids differ, so rows rebuild lazily as searches
    read them, and {!rebind} keeps them for one that
    {!Problem.leveled_diff} finds [Same]. *)

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

(** [successor t h i] is [Propset.regress_intern ctx h.set a] for [a]
    the [i]-th action of [candidates t h].  The slot is filled on its
    first read (so a set is interned exactly when a search first needs
    it) and every later read returns the physically same handle. *)
val successor : t -> Propset.handle -> int -> Propset.handle

(** [rebind t pb] makes successor rows regress through [pb]'s actions
    from now on and keeps every row already filled.  [pb] must agree with
    the problem [t] was made for ({!Problem.leveled_diff} finds it
    [Same]), so the rows hold what [pb] would compute. *)
val rebind : t -> Problem.t -> unit

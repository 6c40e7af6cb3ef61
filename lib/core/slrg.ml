module Heap = Sekitei_util.Heap
module Timer = Sekitei_util.Timer
module Deadline = Sekitei_util.Deadline
module Telemetry = Sekitei_telemetry.Telemetry
module Registry = Sekitei_telemetry.Registry

(* A budget-exhausted query caches its admissible bound together with the
   expansion budget it spent; a re-query re-runs the A* with that budget
   doubled (geometric, so total work per set stays linear in the final
   budget) until the answer is exact or the per-set cap is reached, after
   which the bound is served from cache like a solved entry. *)
let escalation_cap = 32

(* Escalated re-runs additionally draw on one shared pool of
   [escalation_pool_factor * query_budget] expansions per oracle.  Like
   order repair in the RG, escalation is opportunistic — serving the
   cached bound is always sound — and on hard instances thousands of
   distinct exhausted sets would otherwise each escalate to the per-set
   cap, multiplying total search work for bounds the caller never
   benefits from. *)
let escalation_pool_factor = 100

(* Adaptive bound harvesting is skipped when a solve closed more sets
   than this: huge closed sets (escalated runs on hard instances) are
   dominated by interior sets no later query revisits, and harvesting
   them bloats [bounds] — taxing the per-successor seeding lookup of
   every subsequent query — for no pruning in return. *)
let harvest_cap = 4096

(* All caches are keyed by the dense interned-set id ({!Propset.handle}).
   Interned ids are dense, so the three persistent caches (exact costs,
   exhausted bounds, PLRG h_max) are flat arrays indexed by id with NaN
   as the absent sentinel: the per-successor probes of the A* inner loop
   — the hottest reads of the whole planner — are plain array loads, no
   hashing and no option allocation.  The FNV walk over the set elements
   runs once per distinct set, inside the interner. *)
type t = {
  mutable problem : Problem.t;
  mutable plrg : Plrg.t;
  ctx : Propset.ctx;
  mutable supports : Supports.t;
  query_budget : int;
  mutable deadline : Deadline.t;
      (** per-request cancellation token (see {!begin_request}); polled
          every 64 expansions and treated exactly like budget exhaustion,
          so an interrupted query still records an admissible bound *)
  mutable solved_val : float array;
      (** exact set cost by interned id, NaN = not solved (infinity is a
          legitimate solved value: logically infeasible set) *)
  mutable solved_ids : int list;  (** ids with a solved entry, unordered *)
  mutable bound_val : float array;
      (** per budget-exhausted set id: the admissible lower bound found
          so far, NaN = no bound *)
  mutable bound_spent : int array;
      (** expansion budget spent finding [bound_val] (drives the
          doubled-budget escalation on re-query) *)
  mutable escalation_pool : int;
      (** remaining expansions escalated re-runs may spend, shared across
          all sets of this oracle *)
  telemetry : Telemetry.t;
  m_query_ms : Registry.histogram option;
      (** per-query latency distribution in the always-on registry *)
  (* The counts below cover the current request: {!begin_request} zeroes
     them.  They are plain fields, always tracked — the planner's report
     is their only reader. *)
  mutable generated : int;
  mutable queries : int;  (** non-memoized queries (A* runs) *)
  mutable cache_hits : int;
  mutable suffix_harvested : int;
  mutable bound_promoted : int;
  mutable query_ms : float;  (** wall time of non-memoized queries *)
  mutable gc_minor_words : float;
      (** [Gc.minor_words] allocated inside non-memoized queries *)
  mutable gc_major_collections : int;
  mutable hmax_by_id : float array;
      (** PLRG h_max per interned set id, [nan] = not yet computed — the
          same sets recur across queries (and in the RG push path), so
          the per-proposition sweep runs once per distinct set *)
  mutable epoch : int;  (** the running A*'s stamp, bumped per solve *)
  mutable stamp : int array;
      (** per set id: the epoch that last wrote [g_val]/[parent]; an
          entry is part of the running solve's g/parent maps only when
          its stamp equals [epoch], so a new solve starts empty without
          clearing anything *)
  mutable g_val : float array;  (** best g found for the set this solve *)
  mutable parent : Propset.handle array;
      (** the set it was reached from this solve, [Propset.no_handle] for
          the root *)
  mutable touched : int array;
      (** the first [n_touched] slots: ids stamped by the running solve,
          in first-touch order *)
  mutable n_touched : int;
}

let create ?(telemetry = Telemetry.null) ?metrics ?(query_budget = 500)
    (problem : Problem.t) plrg =
  let ctx = Propset.make_ctx problem in
  {
    problem;
    plrg;
    ctx;
    supports = Supports.make ctx problem plrg;
    query_budget;
    deadline = Deadline.none;
    solved_val = Array.make 1024 Float.nan;
    solved_ids = [];
    bound_val = Array.make 1024 Float.nan;
    bound_spent = Array.make 1024 0;
    escalation_pool = escalation_pool_factor * query_budget;
    telemetry;
    m_query_ms =
      Option.map (fun m -> Registry.histogram m "slrg.query_ms") metrics;
    generated = 0;
    queries = 0;
    cache_hits = 0;
    suffix_harvested = 0;
    bound_promoted = 0;
    query_ms = 0.;
    gc_minor_words = 0.;
    gc_major_collections = 0;
    hmax_by_id = Array.make 1024 Float.nan;
    epoch = 0;
    stamp = Array.make 64 0;
    g_val = Array.make 64 0.;
    parent = Array.make 64 Propset.no_handle;
    touched = Array.make 64 0;
    n_touched = 0;
  }

let ctx t = t.ctx
let supports t = t.supports

(* Dense-id cache plumbing: reads tolerate ids beyond the current
   capacity (absent), writes grow geometrically. *)
let[@inline] dget arr id = if id < Array.length arr then arr.(id) else Float.nan

let grow arr cap fill =
  let grown = Array.make cap fill in
  Array.blit arr 0 grown 0 (Array.length arr);
  grown

let[@inline] solved t id = dget t.solved_val id
let[@inline] bound t id = dget t.bound_val id

let set_solved t id c =
  let n = Array.length t.solved_val in
  if id >= n then
    t.solved_val <-
      grow t.solved_val (Stdlib.max (2 * n) (id + 1024)) Float.nan;
  if Float.is_nan t.solved_val.(id) then t.solved_ids <- id :: t.solved_ids;
  t.solved_val.(id) <- c

let set_bound t id b spent =
  let n = Array.length t.bound_val in
  if id >= n then begin
    let cap = Stdlib.max (2 * n) (id + 1024) in
    t.bound_val <- grow t.bound_val cap Float.nan;
    t.bound_spent <- grow t.bound_spent cap 0
  end;
  t.bound_val.(id) <- b;
  t.bound_spent.(id) <- spent

let clear_bound t id =
  if id < Array.length t.bound_val then t.bound_val.(id) <- Float.nan

let h_max t (set : int array) =
  let h = ref 0. in
  for i = 0 to Array.length set - 1 do
    let c = Plrg.cost t.plrg set.(i) in
    if c > !h then h := c
  done;
  !h

let h_max_h t (handle : Propset.handle) =
  let id = handle.Propset.id in
  let n = Array.length t.hmax_by_id in
  if id >= n then
    t.hmax_by_id <-
      grow t.hmax_by_id (Stdlib.max (2 * n) (id + 1024)) Float.nan;
  let v = t.hmax_by_id.(id) in
  if Float.is_nan v then begin
    let v = h_max t handle.Propset.set in
    t.hmax_by_id.(id) <- v;
    v
  end
  else v

(* The running solve's g/parent maps (see [stamp]).  [g_of] is NaN for a
   set the solve has not reached; g values themselves are finite sums of
   action cost bounds. *)
let[@inline] g_of t id =
  if id < Array.length t.stamp && t.stamp.(id) = t.epoch then t.g_val.(id)
  else Float.nan

let[@inline] parent_of t id =
  if id < Array.length t.stamp && t.stamp.(id) = t.epoch then t.parent.(id)
  else Propset.no_handle

let set_g t id g (from : Propset.handle) =
  let n = Array.length t.stamp in
  if id >= n then begin
    let cap = Stdlib.max (2 * n) (id + 1) in
    t.stamp <- grow t.stamp cap 0;
    t.g_val <- grow t.g_val cap 0.;
    t.parent <- grow t.parent cap Propset.no_handle
  end;
  if t.stamp.(id) <> t.epoch then begin
    t.stamp.(id) <- t.epoch;
    if t.n_touched = Array.length t.touched then
      t.touched <- grow t.touched (2 * t.n_touched) 0;
    t.touched.(t.n_touched) <- id;
    t.n_touched <- t.n_touched + 1
  end;
  t.g_val.(id) <- g;
  t.parent.(id) <- from

(* Suffix-cost harvesting: at exact termination with optimum [cost], every
   set on the recorded best complete path satisfies
   [cost_to_empty set = cost - g(set)] — going through the set is one way
   to complete (so [cost <= g + cost_to_empty]) and the recorded suffix
   achieves exactly [cost - g].  One solve thus fills the [solved] cache
   for the whole chain.  The recorded g may exceed the optimal prefix
   cost on degenerate reopening orders, in which case the harvested value
   is an underestimate — still a sound lower bound, never an
   overestimate. *)
let harvest t ~(root : Propset.handle) ~cost from =
  match from with
  | None -> ()
  | Some (s0 : Propset.handle) ->
      let rec walk (s : Propset.handle) =
        let id = s.Propset.id in
        let g = g_of t id in
        if
          Array.length s.Propset.set > 0
          && id <> root.Propset.id
          && not (Float.is_nan g)
        then begin
          let c = cost -. g in
          (* h_max is consistent under regression, hence admissible
             against the exact suffix cost at every chain node. *)
          assert (h_max t s.Propset.set <= c +. 1e-6);
          if Float.is_nan (solved t id) then begin
            set_solved t id c;
            t.suffix_harvested <- t.suffix_harvested + 1;
            if not (Float.is_nan (bound t id)) then begin
              clear_bound t id;
              t.bound_promoted <- t.bound_promoted + 1
            end
          end
        end;
        let p = parent_of t id in
        if p != Propset.no_handle then walk p
      in
      walk s0

(* One A* regression solve of [root] under [budget] expansions.  [prior]
   is the cached (bound, spent) pair from an earlier exhausted run, folded
   into the root heuristic and the returned bound. *)
let run_query t (root : Propset.handle) ~prior ~budget =
  let pb = t.problem in
  let t0 = Timer.start () in
  (* [Gc.minor_words] reads the live allocation pointer; [quick_stat]'s
     field is only refreshed at collection boundaries in native code. *)
  let gc0_minor = Gc.minor_words () in
  let gc0_major = (Gc.quick_stat ()).Gc.major_collections in
  let sp =
    if Telemetry.enabled t.telemetry then
      Some (Telemetry.begin_span t.telemetry "slrg.query")
    else None
  in
  let expansions = ref 0 in
  let cost =
    let h_root =
      let h = h_max_h t root in
      match prior with Some (b, _) -> Float.max h b | None -> h
    in
    if not (Float.is_finite h_root) then begin
      set_solved t root.Propset.id Float.infinity;
      Float.infinity
    end
    else begin
      t.epoch <- t.epoch + 1;
      t.n_touched <- 0;
      let heap = Heap.create () in
      set_g t root.Propset.id 0. Propset.no_handle;
      Heap.add heap ~prio:h_root (root, 0.);
      t.generated <- t.generated + 1;
      let best_complete = ref Float.infinity in
      (* The set the best complete path descends from; its parent chain
         is harvested on exact termination. *)
      let complete_from = ref None in
      let result = ref None in
      let exact = ref true in
      (* Bound seeding can make the heuristic inconsistent, and after a
         node reopening the recorded g values need not telescope along
         the parent chain any more — the root answer stays exact, but
         suffix harvesting is skipped for that (rare) run. *)
      let reopened = ref false in
      while !result = None do
        match Heap.peek heap with
        | None ->
            result := Some !best_complete
            (* infinity when nothing completed *)
        | Some ((set, g), f) ->
            if !best_complete <= f then result := Some !best_complete
            else if
              !expansions >= budget
              || (!expansions land 63 = 0 && Deadline.expired t.deadline)
            then begin
              (* Budget exhausted (or the request deadline fired — same
                 graceful path): the open minimum is still an admissible
                 bound, but not exact. *)
              exact := false;
              result := Some (Float.min !best_complete f)
            end
            else begin
              ignore (Heap.pop heap);
              (* An absent entry (NaN) is never stale. *)
              let stale = g_of t set.Propset.id < g -. 1e-12 in
              if not stale then begin
                incr expansions;
                if Array.length set.Propset.set = 0 then begin
                  if g < !best_complete then begin
                    best_complete := g;
                    complete_from := Some set
                  end;
                  result := Some !best_complete
                end
                else
                  let cands = Supports.candidates t.supports set in
                  for i = 0 to Array.length cands - 1 do
                    let a = pb.actions.(cands.(i)) in
                    let set' = Supports.successor t.supports set i in
                    let g' = g +. a.Action.cost_lb in
                    let rest = solved t set'.Propset.id in
                    if not (Float.is_nan rest) then begin
                      if g' +. rest < !best_complete then begin
                        best_complete := g' +. rest;
                        complete_from := Some set
                      end
                    end
                    else
                      let h = h_max_h t set' in
                      if Float.is_finite h then begin
                        (* Solved-subset seeding: a cached partial
                           bound for the successor strengthens its
                           f-value (still admissible), so exhausted
                           earlier queries sharpen later ones instead
                           of being discarded. *)
                        let b = bound t set'.Propset.id in
                        let h = if Float.is_nan b then h else Float.max h b in
                        (* Dominated successors (f no better than a
                           completion already in hand) can never
                           improve the answer; with the harvested
                           bounds folded into h this prunes most of
                           the frontier of a re-query. *)
                        if g' +. h < !best_complete then
                          let g_old = g_of t set'.Propset.id in
                          if Float.is_nan g_old || g_old > g' +. 1e-12
                          then begin
                            if not (Float.is_nan g_old) then
                              reopened := true;
                            set_g t set'.Propset.id g' set;
                            t.generated <- t.generated + 1;
                            Heap.add heap ~prio:(g' +. h) (set', g')
                          end
                      end
                  done
              end
            end
      done;
      let cost = Option.get !result in
      if !exact then begin
        if not !reopened then
          harvest t ~root ~cost !complete_from;
        (* Adaptive-A*-style bound harvesting: all queries regress toward
           the same target (the empty set), so cost-to-empty is one shared
           function across queries.  For every set touched by this exact
           solve, [cost - g] lower-bounds its cost-to-empty — a completion
           cheaper than that would contradict the optimality of [cost],
           and any recorded g only overestimates the optimal prefix.
           Folded into later queries' f-values by bound seeding, this is
           what makes correlated RG queries terminate almost immediately. *)
        if Float.is_finite cost && t.n_touched <= harvest_cap then
          for k = 0 to t.n_touched - 1 do
            let sid = t.touched.(k) in
            let b = cost -. t.g_val.(sid) in
            if
              b > 0.
              && Float.is_nan (solved t sid)
              && b > h_max_h t (Propset.handle_of_id t.ctx sid)
            then
              let b0 = bound t sid in
              if Float.is_nan b0 then set_bound t sid b 0
              else if b0 < b then set_bound t sid b t.bound_spent.(sid)
          done;
        if not (Float.is_nan (bound t root.Propset.id)) then begin
          clear_bound t root.Propset.id;
          t.bound_promoted <- t.bound_promoted + 1
        end;
        set_solved t root.Propset.id cost;
        cost
      end
      else begin
        (* Keep the strongest admissible bound seen for this set and the
           budget this run spent, so the next re-query escalates. *)
        let cost =
          match prior with Some (b, _) -> Float.max b cost | None -> cost
        in
        set_bound t root.Propset.id cost budget;
        cost
      end
    end
  in
  if prior <> None then t.escalation_pool <- t.escalation_pool - !expansions;
  let this_query_ms = Timer.elapsed_ms t0 in
  t.queries <- t.queries + 1;
  (match t.m_query_ms with
  | Some h -> Registry.observe h this_query_ms
  | None -> ());
  t.query_ms <- t.query_ms +. this_query_ms;
  t.gc_minor_words <- t.gc_minor_words +. (Gc.minor_words () -. gc0_minor);
  t.gc_major_collections <-
    t.gc_major_collections
    + ((Gc.quick_stat ()).Gc.major_collections - gc0_major);
  (match sp with
  | Some sp ->
      ignore
        (Telemetry.end_span t.telemetry sp
           ~attrs:
             [
               ("set", Telemetry.Int (Array.length root.Propset.set));
               ("expansions", Telemetry.Int !expansions);
               ("cost", Telemetry.Float cost);
             ])
  | None -> ());
  cost

let cache_hit t = t.cache_hits <- t.cache_hits + 1

(* [root] must be a handle of this oracle's {!ctx} (the RG shares the ctx
   and passes its nodes' handles through unchanged; results are memoized
   by the handle's dense id). *)
let query_h t (root : Propset.handle) =
  if Array.length root.Propset.set = 0 then 0.
  else
    let c = solved t root.Propset.id in
    if not (Float.is_nan c) then begin
      cache_hit t;
      c
    end
    else
      let b = bound t root.Propset.id in
      if Float.is_nan b then run_query t root ~prior:None ~budget:t.query_budget
      else
        let spent = t.bound_spent.(root.Propset.id) in
        if spent >= escalation_cap * t.query_budget || t.escalation_pool <= 0
        then begin
          (* Escalation cap or shared pool exhausted: serve the bound
             like a cache entry so pathological sets cannot dominate
             planning time. *)
          cache_hit t;
          b
        end
        else
          run_query t root ~prior:(Some (b, spent))
            ~budget:(max t.query_budget (2 * spent))

(* [root] must be canonical (see {!Propset}); it is interned on entry. *)
let query_set t (root : int array) = query_h t (Propset.intern t.ctx root)
let query t props = query_set t (Propset.canonical t.problem props)
let nodes_generated t = t.generated
let queries t = t.queries
let query_ms t = t.query_ms
let gc_minor_words t = t.gc_minor_words
let gc_major_collections t = t.gc_major_collections
let cache_hits t = t.cache_hits
let suffix_harvested t = t.suffix_harvested
let bound_promoted t = t.bound_promoted

let iter_solved t f =
  List.iter
    (fun sid -> f (Propset.handle_of_id t.ctx sid).Propset.set t.solved_val.(sid))
    t.solved_ids

(* ------------------------------------------------------------------ *)
(* Session support: per-request reset and delta invalidation            *)
(* ------------------------------------------------------------------ *)

(* Exact solved entries and h_max values are path-independent facts about
   the problem, so they may be carried across requests; exhausted-query
   bounds are not — they depend on the budget, the escalation pool, and
   the order earlier queries arrived in.  Dropping every bound and
   refilling the escalation pool at each request start is what makes a
   warm re-plan bit-identical to a cold one (provided no root query
   exhausts its budget in the cold run; see {!Session}).  The counts
   restart too, so after the request's search they hold its share. *)
let begin_request t ~deadline =
  Array.fill t.bound_val 0 (Array.length t.bound_val) Float.nan;
  Array.fill t.bound_spent 0 (Array.length t.bound_spent) 0;
  t.escalation_pool <- escalation_pool_factor * t.query_budget;
  t.deadline <- deadline;
  t.generated <- 0;
  t.queries <- 0;
  t.cache_hits <- 0;
  t.suffix_harvested <- 0;
  t.bound_promoted <- 0;
  t.query_ms <- 0.;
  t.gc_minor_words <- 0.;
  t.gc_major_collections <- 0

let refresh t (pb : Problem.t) plrg ~dirty =
  t.problem <- pb;
  t.plrg <- plrg;
  Propset.refresh_ctx t.ctx pb;
  t.supports <- Supports.make t.ctx pb plrg;
  let evicted = ref 0 in
  (* Solved entries over a set with a dirty proposition may regress
     through tainted actions; everything else regresses through actions
     identical in the old and new problems (see {!Supports.taint}) and
     stays exact. *)
  t.solved_ids <-
    List.filter
      (fun sid ->
        let set = (Propset.handle_of_id t.ctx sid).Propset.set in
        if Array.exists dirty set then begin
          t.solved_val.(sid) <- Float.nan;
          incr evicted;
          false
        end
        else true)
      t.solved_ids;
  (* PLRG h_max of a clean set is unchanged (clean propositions keep
     their per-proposition costs); dirty sets must recompute against the
     rebuilt PLRG. *)
  for id = 0 to Array.length t.hmax_by_id - 1 do
    if not (Float.is_nan t.hmax_by_id.(id)) then
      let set = (Propset.handle_of_id t.ctx id).Propset.set in
      if Array.exists dirty set then begin
        t.hmax_by_id.(id) <- Float.nan;
        incr evicted
      end
  done;
  !evicted

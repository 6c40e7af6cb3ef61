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

type stats = {
  nodes : int;
  queries : int;
  cache_hits : int;
  suffix_harvested : int;
  bound_promoted : int;
  query_ms : float;
  minor_words : float;
}

let no_stats =
  {
    nodes = 0;
    queries = 0;
    cache_hits = 0;
    suffix_harvested = 0;
    bound_promoted = 0;
    query_ms = 0.;
    minor_words = 0.;
  }

(* All caches are keyed by the dense interned-set id ({!Propset.handle}).
   Interned ids are dense, so the three persistent caches (exact costs,
   exhausted bounds, PLRG h_max) are flat arrays indexed by id with NaN
   as the absent sentinel: the per-successor probes of the A* inner loop
   — the hottest reads of the whole planner — are plain array loads, no
   hashing and no option allocation.  The FNV walk over a set's elements
   runs inside the interner, on the first read of each regression
   edge. *)
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
  mutable wit_act : int array;
      (** per set id on the path of an exact solve: the first action of
          that path from the set, -1 = no witness; sized by the largest
          witnessed id.  Every finite solved entry has one. *)
  mutable wit_next : int array;
      (** parallel to [wit_act]: the id of the set that action regresses
          to, the empty set or another witnessed set *)
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
  metrics : Registry.t option;
      (** the always-on registry the per-query latency is recorded in *)
  (* The counts below cover the current request: {!begin_request} zeroes
     them.  They are plain fields, always tracked, read only by
     {!stats}. *)
  mutable generated : int;
  mutable queries : int;  (** non-memoized queries (A* runs) *)
  mutable cache_hits : int;
  mutable suffix_harvested : int;
  mutable bound_promoted : int;
  mutable query_ms : float;  (** wall time of non-memoized queries *)
  mutable gc_minor_words : float;
      (** [Gc.minor_words] allocated inside non-memoized queries *)
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
  mutable pushed : int array;
      (** the heap sequence number of the set's latest push this solve:
          the one queue entry of the set that is not stale *)
  mutable touched : int array;
      (** the first [n_touched] slots: ids stamped by the running solve,
          in first-touch order *)
  mutable n_touched : int;
  heap : Propset.handle Heap.t;  (** the A* queue, reset per solve *)
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
    wit_act = [||];
    wit_next = [||];
    bound_val = Array.make 1024 Float.nan;
    bound_spent = Array.make 1024 0;
    escalation_pool = escalation_pool_factor * query_budget;
    telemetry;
    metrics;
    generated = 0;
    queries = 0;
    cache_hits = 0;
    suffix_harvested = 0;
    bound_promoted = 0;
    query_ms = 0.;
    gc_minor_words = 0.;
    hmax_by_id = Array.make 1024 Float.nan;
    epoch = 0;
    stamp = Array.make 64 0;
    g_val = Array.make 64 0.;
    parent = Array.make 64 Propset.no_handle;
    pushed = Array.make 64 0;
    touched = Array.make 64 0;
    n_touched = 0;
    heap = Heap.create ();
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

let set_witness t id act next =
  let n = Array.length t.wit_act in
  if id >= n then begin
    let cap = Stdlib.max (2 * n) (id + 1) in
    t.wit_act <- grow t.wit_act cap (-1);
    t.wit_next <- grow t.wit_next cap (-1)
  end;
  t.wit_act.(id) <- act;
  t.wit_next.(id) <- next

let[@inline] witness_act t id =
  if id < Array.length t.wit_act then t.wit_act.(id) else -1

let h_max t (set : int array) =
  let h = ref 0. in
  for i = 0 to Array.length set - 1 do
    let c = Plrg.cost t.plrg set.(i) in
    if c > !h then h := c
  done;
  !h

let fill_hmax t (handle : Propset.handle) =
  let id = handle.Propset.id in
  let n = Array.length t.hmax_by_id in
  if id >= n then
    t.hmax_by_id <-
      grow t.hmax_by_id (Stdlib.max (2 * n) (id + 1024)) Float.nan;
  t.hmax_by_id.(id) <- h_max t handle.Propset.set

(* The memo is filled by a call returning unit and then read with an
   array load, so the inlined read yields an unboxed float. *)
let[@inline] hmax t (handle : Propset.handle) =
  let id = handle.Propset.id in
  if Float.is_nan (dget t.hmax_by_id id) then fill_hmax t handle;
  t.hmax_by_id.(id)

let h_max_h t handle = hmax t handle

(* The running solve's g/parent maps (see [stamp]).  [g_of] is NaN for a
   set the solve has not reached; g values themselves are finite sums of
   action cost bounds. *)
let[@inline] g_of t id =
  if id < Array.length t.stamp && t.stamp.(id) = t.epoch then t.g_val.(id)
  else Float.nan

let[@inline] parent_of t id =
  if id < Array.length t.stamp && t.stamp.(id) = t.epoch then t.parent.(id)
  else Propset.no_handle

let grow_solve t id =
  let n = Array.length t.stamp in
  let cap = Stdlib.max (2 * n) (id + 1) in
  t.stamp <- grow t.stamp cap 0;
  t.g_val <- grow t.g_val cap 0.;
  t.parent <- grow t.parent cap Propset.no_handle;
  t.pushed <- grow t.pushed cap 0

let touch t id =
  t.stamp.(id) <- t.epoch;
  if t.n_touched = Array.length t.touched then
    t.touched <- grow t.touched (2 * t.n_touched) 0;
  t.touched.(t.n_touched) <- id;
  t.n_touched <- t.n_touched + 1

(* Record [g] and [from] for [s] in the running solve and queue [s] with
   priority [f].  Every g write comes with a push, and the push's
   sequence number is recorded in [pushed]. *)
let[@inline] push t (s : Propset.handle) g f (from : Propset.handle) =
  let id = s.Propset.id in
  if id >= Array.length t.stamp then grow_solve t id;
  if t.stamp.(id) <> t.epoch then touch t id;
  t.g_val.(id) <- g;
  t.parent.(id) <- from;
  t.pushed.(id) <- Heap.insertions t.heap;
  Heap.add t.heap ~prio:f s

(* The cheapest candidate of [p] whose successor slot is [c] (the first
   on a tie), -1 if none.  [p] was expanded, so its row and every slot
   of it are filled. *)
let edge_action t (p : Propset.handle) (c : Propset.handle) =
  let cands = Supports.candidates t.supports p in
  let best = ref (-1) and best_cost = ref Float.infinity in
  for i = 0 to Array.length cands - 1 do
    if Supports.successor t.supports p i == c then begin
      let w = t.problem.actions.(cands.(i)).Action.cost_lb in
      if !best < 0 || w < !best_cost then begin
        best := cands.(i);
        best_cost := w
      end
    end
  done;
  !best

(* At exact termination with optimum [cost], the best complete path
   leaves [from] for [next] (the empty set or a solved one), and
   [from]'s parent chain leads back to the root.

   Witnesses: every set on the path records the first edge of its own
   suffix, the cheapest action from it to the next set.  With those
   edges the path costs at most the g recorded at [from] plus the last
   edge, which is [cost], so it is optimal and so is each of its
   suffixes; a solve that reopened a set qualifies too, since reopening
   only ever lowered the recorded g values.

   Suffix-cost harvesting, on a solve that reopened nothing: every set
   on the path satisfies [cost_to_empty set = cost - g(set)] — going
   through the set is one way to complete (so
   [cost <= g + cost_to_empty]) and the recorded suffix achieves
   exactly [cost - g].  One solve thus fills the [solved] cache for the
   whole chain.  The root's cost is written by the caller. *)
let record_path t ~(root : Propset.handle) ~cost ~harvest
    (from : Propset.handle) (next : Propset.handle) =
  let rec walk (s : Propset.handle) (next : Propset.handle) =
    let id = s.Propset.id in
    set_witness t id (edge_action t s next) next.Propset.id;
    if id <> root.Propset.id then begin
      let g = g_of t id in
      if harvest && not (Float.is_nan g) then begin
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
      if p != Propset.no_handle then walk p s
    end
  in
  walk from next

(* One A* regression solve of [root] under [budget] expansions.  [prior]
   is the bound cached by an earlier exhausted run (NaN when none),
   folded into the root heuristic and the returned bound.

   The queue holds handles only.  A set is pushed again only with a g
   lower by more than 1e-12, so of its entries exactly the latest push
   is current: an entry is stale when its sequence number is not the one
   [pushed] records, and the current entry's g is the set's [g_val].  The
   loop allocates nothing per expansion beyond the boxed priority of a
   push and the sets interned on first sight. *)
let run_query t (root : Propset.handle) ~prior ~budget =
  let pb = t.problem in
  let t0 = Timer.start () in
  (* [Gc.minor_words] reads the live allocation pointer; major
     collections are not counted per query, as [Gc.quick_stat] costs far
     more than a cached query (see {!Session.phases}). *)
  let gc0_minor = Gc.minor_words () in
  let sp =
    if Telemetry.enabled t.telemetry then
      Some (Telemetry.begin_span t.telemetry "slrg.query")
    else None
  in
  let expansions = ref 0 in
  let cost =
    let h_root =
      let h = hmax t root in
      if Float.is_nan prior || h >= prior then h else prior
    in
    if not (Float.is_finite h_root) then begin
      set_solved t root.Propset.id Float.infinity;
      Float.infinity
    end
    else begin
      t.epoch <- t.epoch + 1;
      t.n_touched <- 0;
      let heap = t.heap in
      Heap.reset heap;
      push t root 0. h_root Propset.no_handle;
      t.generated <- t.generated + 1;
      let best_complete = ref Float.infinity in
      (* The best complete path leaves [complete_from] for
         [complete_next], the empty set or a solved one; its parent
         chain is harvested on exact termination. *)
      let complete_from = ref Propset.no_handle in
      let complete_next = ref Propset.no_handle in
      (* NaN until the search stops; every answer is a number. *)
      let cost = ref Float.nan in
      let exact = ref true in
      (* Bound seeding can make the heuristic inconsistent, and after a
         node reopening the recorded g values need not telescope along
         the parent chain any more — the root answer stays exact, but
         suffix harvesting is skipped for that run (its path still
         records witnesses). *)
      let reopened = ref false in
      while Float.is_nan !cost do
        if Heap.is_empty heap then
          (* infinity when nothing completed *)
          cost := !best_complete
        else begin
          let f = Heap.top_prio heap in
          if !best_complete <= f then cost := !best_complete
          else if
            !expansions >= budget
            || (!expansions land 63 = 0 && Deadline.expired t.deadline)
          then begin
            (* Budget exhausted (or the request deadline fired — same
               graceful path): the open minimum, below [best_complete]
               here, is still an admissible bound, but not exact. *)
            exact := false;
            cost := f
          end
          else begin
            let seq = Heap.top_seq heap in
            let set = Heap.pop_value heap in
            let id = set.Propset.id in
            if t.pushed.(id) = seq then begin
              let g = t.g_val.(id) in
              incr expansions;
              if Array.length set.Propset.set = 0 then begin
                if g < !best_complete then begin
                  best_complete := g;
                  complete_from := parent_of t id;
                  complete_next := set
                end;
                cost := !best_complete
              end
              else begin
                let cands = Supports.candidates t.supports set in
                for i = 0 to Array.length cands - 1 do
                  let a = pb.actions.(cands.(i)) in
                  let set' = Supports.successor t.supports set i in
                  let id' = set'.Propset.id in
                  let g' = g +. a.Action.cost_lb in
                  let rest = solved t id' in
                  if not (Float.is_nan rest) then begin
                    if g' +. rest < !best_complete then begin
                      best_complete := g' +. rest;
                      complete_from := set;
                      complete_next := set'
                    end
                  end
                  else begin
                    let h = hmax t set' in
                    if Float.is_finite h then begin
                      (* Solved-subset seeding: a cached partial bound
                         for the successor strengthens its f-value
                         (still admissible), so exhausted earlier
                         queries sharpen later ones instead of being
                         discarded. *)
                      let b = bound t id' in
                      let h = if b > h then b else h in
                      (* Dominated successors (f no better than a
                         completion already in hand) can never improve
                         the answer; with the harvested bounds folded
                         into h this prunes most of the frontier of a
                         re-query. *)
                      if g' +. h < !best_complete then begin
                        let g_old = g_of t id' in
                        if Float.is_nan g_old || g_old > g' +. 1e-12 then begin
                          if not (Float.is_nan g_old) then reopened := true;
                          push t set' g' (g' +. h) set;
                          t.generated <- t.generated + 1
                        end
                      end
                    end
                  end
                done
              end
            end
          end
        end
      done;
      let cost = !cost in
      if !exact then begin
        if !complete_from != Propset.no_handle then
          record_path t ~root ~cost ~harvest:(not !reopened) !complete_from
            !complete_next;
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
              && b > hmax t (Propset.handle_of_id t.ctx sid)
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
          if Float.is_nan prior || cost >= prior then cost else prior
        in
        set_bound t root.Propset.id cost budget;
        cost
      end
    end
  in
  if not (Float.is_nan prior) then
    t.escalation_pool <- t.escalation_pool - !expansions;
  let this_query_ms = Timer.elapsed_ms t0 in
  t.queries <- t.queries + 1;
  (match t.metrics with
  | Some m -> Registry.observe_ms m "slrg.query_ms" this_query_ms
  | None -> ());
  t.query_ms <- t.query_ms +. this_query_ms;
  t.gc_minor_words <- t.gc_minor_words +. (Gc.minor_words () -. gc0_minor);
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
      if Float.is_nan b then
        run_query t root ~prior:Float.nan ~budget:t.query_budget
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
          run_query t root ~prior:b ~budget:(max t.query_budget (2 * spent))

(* [root] must be canonical (see {!Propset}); it is interned on entry. *)
let query_set t (root : int array) = query_h t (Propset.intern t.ctx root)
let query t props = query_set t (Propset.canonical t.problem props)

let stats t : stats =
  {
    nodes = t.generated;
    queries = t.queries;
    cache_hits = t.cache_hits;
    suffix_harvested = t.suffix_harvested;
    bound_promoted = t.bound_promoted;
    query_ms = t.query_ms;
    minor_words = t.gc_minor_words;
  }

let entries t =
  Array.fold_left
    (fun n h -> if Float.is_nan h then n else n + 1)
    (List.length t.solved_ids) t.hmax_by_id

let iter_solved t f =
  List.iter
    (fun sid -> f (Propset.handle_of_id t.ctx sid).Propset.set t.solved_val.(sid))
    t.solved_ids

let witness t (h : Propset.handle) =
  let act = witness_act t h.Propset.id in
  if act < 0 then None
  else Some (act, Propset.handle_of_id t.ctx t.wit_next.(h.Propset.id))

let iter_bounds t f =
  Array.iteri
    (fun id b ->
      if not (Float.is_nan b) then
        f (Propset.handle_of_id t.ctx id).Propset.set b)
    t.bound_val

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
  t.gc_minor_words <- 0.

(* Nothing the caches were computed from has changed, so every entry,
   every witness and every supports row stays; only the problem the
   oracle reads moves. *)
let rebind t pb plrg =
  t.problem <- pb;
  t.plrg <- plrg;
  Supports.rebind t.supports pb

(* The states of a set in {!shrink}'s walk. *)
let unknown = '\000'
let on_walk = '\001'
let kept = '\002'
let dropped = '\003'

(* Removing actions only removes regression edges and can only shrink
   the PLRG-relevant set, so no set's cost falls: a set whose witness
   path still exists, every edge through an action that has a
   field-equal counterpart which is still relevant, costs exactly what
   it did.  [status] memoizes the walk per set id; a set met again while
   on the walk closes a cycle, which proves nothing.  Infinite entries
   have no path and stay infinite. *)
let shrink t (pb : Problem.t) plrg ~map =
  let old_plrg = t.plrg in
  t.problem <- pb;
  t.plrg <- plrg;
  Propset.refresh_ctx ~map t.ctx pb;
  t.supports <- Supports.make t.ctx pb plrg;
  let status = Bytes.make (Propset.interned_count t.ctx) unknown in
  let rec keeps id =
    let s = Bytes.get status id in
    if s <> unknown then s = kept
    else begin
      Bytes.set status id on_walk;
      let keep =
        Float.equal (solved t id) Float.infinity
        ||
        let a = witness_act t id in
        a >= 0
        && map.(a) >= 0
        && Plrg.action_relevant plrg map.(a)
        &&
        let next = t.wit_next.(id) in
        Array.length (Propset.handle_of_id t.ctx next).Propset.set = 0
        || keeps next
      in
      Bytes.set status id (if keep then kept else dropped);
      keep
    end
  in
  let evicted = ref 0 in
  t.solved_ids <-
    List.filter
      (fun sid ->
        keeps sid
        || begin
             t.solved_val.(sid) <- Float.nan;
             incr evicted;
             false
           end)
      t.solved_ids;
  (* Every walk has read the old ids by now: remap the kept witnesses
     and drop the rest. *)
  for id = 0 to Array.length t.wit_act - 1 do
    let a = t.wit_act.(id) in
    if a >= 0 then
      t.wit_act.(id) <- (if keeps id then map.(a) else -1)
  done;
  (* An h_max memo entry over a set holding a proposition whose PLRG cost
     changed is recomputed on its next read. *)
  let changed p =
    not (Float.equal (Plrg.cost old_plrg p) (Plrg.cost plrg p))
  in
  for id = 0 to Array.length t.hmax_by_id - 1 do
    if
      (not (Float.is_nan t.hmax_by_id.(id)))
      && Array.exists changed (Propset.handle_of_id t.ctx id).Propset.set
    then begin
      t.hmax_by_id.(id) <- Float.nan;
      incr evicted
    end
  done;
  !evicted

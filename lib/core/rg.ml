module Heap = Sekitei_util.Heap
module Iset = Set.Make (Int)
module Deadline = Sekitei_util.Deadline
module Telemetry = Sekitei_telemetry.Telemetry

type stats = {
  created : int;
  expanded : int;
  open_left : int;
  replay_pruned : int;
  ungenerated : int;
  final_replay_rejected : int;
  duplicates : int;
  order_repaired : int;
  slrg_deferred : int;
  slrg_saved : int;
}

let no_stats =
  {
    created = 0;
    expanded = 0;
    open_left = 0;
    replay_pruned = 0;
    ungenerated = 0;
    final_replay_rejected = 0;
    duplicates = 0;
    order_repaired = 0;
    slrg_deferred = 0;
    slrg_saved = 0;
  }

type frontier = { best_f : float; tail : string list; unmet : string list }

type result =
  | Solution of Action.t list * Replay.metrics * float
  | Exhausted
  | Cutoff of {
      by : [ `Budget | `Deadline ];
      expansions : int;
      frontier : frontier;
    }

type node = {
  tail : Action.t list;  (** plan suffix, execution order *)
  set : Propset.handle;  (** interned canonical pending propositions *)
  g : float;
  serial : int;
      (** the heap tie-break key: the parent's [base] plus the
          candidate slot this node came through.  Serials order nodes by
          their parents' first expansions, then by slot — the order an
          eager expansion generated them in — whatever order they are
          generated in; kept across deferred re-insertions so a
          re-inserted node keeps its place among f- and g-tied nodes *)
  acts : Iset.t;  (** action ids in [tail] (repetition guard) *)
  zh : int;  (** Zobrist hash of [acts] (see {!Key}) *)
  rs : Replay.rstate;
      (** optimistic replay state of the suffix, built incrementally in
          regression order (one [Replay.extend] per generated child) *)
  mutable refined : bool;
      (** whether [h] is the SLRG value (true) or the cheap PLRG bound
          the node was queued with (false) *)
  mutable base : int;
      (** the serial of candidate slot 0, reserved for the whole row at
          the node's first expansion; -1 before it *)
  mutable pending : int array;
      (** the candidate slots the first expansion left pending, in the
          (f, -g, serial) order of the children they make; those from
          [next] on are not generated yet.  Only the queue refers to an
          expanded node, so the list goes with the node once drained *)
  mutable next : int;
}

(* Duplicate-detection key: interned pending set plus the set of action
   ids in the tail.  The repetition guard makes tails action *sets*, so
   two nodes agreeing on both components are permutations of one another
   — same g (sum of the same cost bounds), same logical obligations —
   and only one needs expanding.  Nodes agreeing on the pending set but
   built from different actions are NOT interchangeable: their replay
   states differ in feasibility, and collapsing them by g-value loses
   solutions (observed on the tiny-E and small-B levelings).  The key
   hashes in O(1): the set is hash-consed to its id, and the action set
   carries a Zobrist hash kept incrementally on the node (the XOR of one
   fixed pseudo-random word per action id), so only a hash match walks
   the two action sets. *)
module Key = struct
  type t = { sid : int; zh : int; acts : Iset.t }

  let equal k1 k2 =
    k1.sid = k2.sid && k1.zh = k2.zh && Iset.equal k1.acts k2.acts

  let hash k = ((k.sid * 0x01000193) lxor k.zh) land max_int
end

module Ktbl = Hashtbl.Make (Key)

(* The Zobrist word of action id [aid]: splitmix64's step and mix
   applied to [aid + 1] from a zero seed, with the constants cut to fit
   OCaml's 63-bit ints.  A fixed pseudo-random function of the id, so no
   table is drawn per search. *)
let zobrist aid =
  let z = (aid + 1) * 0x1e3779b97f4a7c15 in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

(* Re-sequencing of a candidate tail under from-init semantics.
   Duplicate detection collapses permuted tails, so of several orderings
   of one action set only a single tail may survive to final validation —
   and from-init replay is order-sensitive.  When that surviving order
   fails, search for a feasible execution order of the same action set by
   depth-first backtracking over the remaining actions (an earlier greedy
   first-feasible pick could dead-end and lose a solution that dedup had
   collapsed).  Remaining sets proven infeasible are memoized — replay
   feasibility of a remainder depends on the executed action {e set}, not
   its order (consumption sums and produced availabilities are
   order-independent) — which caps the search at one attempt per subset.
   [steps] holds the remaining [Replay.extend] budget and is decremented
   in place, so one pool can be shared across many repair attempts;
   within the budget the search is exhaustive — [Infeasible] is a proof
   that no order of the action set replays from init, while [Gave_up]
   only says the budget ran out first. *)
type repair_outcome =
  | Repaired of Action.t list * Replay.metrics
  | Infeasible
  | Gave_up

let repair_search ~steps (pb : Problem.t) tail =
  let arr = Array.of_list tail in
  let failed = Hashtbl.create 32 in
  let exception Out_of_budget in
  let rec go rs acc remaining =
    match remaining with
    | [] ->
        Some
          (List.rev_map (fun i -> arr.(i)) acc, Replay.rstate_metrics pb rs)
    | _ ->
        let key = List.sort Int.compare remaining in
        if Hashtbl.mem failed key then None
        else begin
          let rec try_each tried = function
            | [] -> None
            | i :: rest -> (
                if !steps <= 0 then raise Out_of_budget;
                decr steps;
                match Replay.extend pb ~mode:Replay.From_init rs arr.(i) with
                | Error _ -> try_each (i :: tried) rest
                | Ok rs' -> (
                    match go rs' (i :: acc) (List.rev_append tried rest) with
                    | Some _ as found -> found
                    | None -> try_each (i :: tried) rest))
          in
          match try_each [] remaining with
          | Some _ as found -> found
          | None ->
              Hashtbl.replace failed key ();
              None
        end
  in
  match go (Replay.initial pb) [] (List.init (Array.length arr) Fun.id) with
  | Some (tail', metrics) -> Repaired (tail', metrics)
  | None -> Infeasible
  | exception Out_of_budget -> Gave_up

let repair_order ?(max_steps = 20_000) pb tail =
  match repair_search ~steps:(ref max_steps) pb tail with
  | Repaired (tail', metrics) -> Some (tail', metrics)
  | Infeasible | Gave_up -> None

let search ?(max_expansions = 500_000) ?(telemetry = Telemetry.null)
    ?(deadline = Deadline.none) (pb : Problem.t) slrg =
  let progress_interval = Telemetry.progress_interval telemetry in
  let created = ref 0
  and expanded = ref 0
  and considered = ref 0
  and replayed = ref 0
  and replay_pruned = ref 0
  and final_rejected = ref 0
  and duplicates = ref 0
  and order_repaired = ref 0
  and deferred = ref 0
  and refined_count = ref 0 in
  (* The SLRG oracle owns the hash-consing ctx and the supports table;
     sharing them keeps handle ids consistent across the two phases and
     lets the candidate and successor rows pay off twice. *)
  let ctx = Slrg.ctx slrg in
  let supports = Slrg.supports slrg in
  (* (pending set, action set) pairs already generated.  A node
     re-deriving a recorded pair is a permutation of the recorded one —
     a duplicate, pruned.  Order sensitivity of the final from-init
     validation is restored by [repair_search] below.  The empty set is
     exempt: candidate solutions go to validation individually, so a
     repair budget exhaustion on one permutation cannot mask another. *)
  let seen_keys = Ktbl.create 256 in
  (* Action sets whose exhaustive repair proved no order replays from
     init.  Candidates are exempt from dedup, so the same multiset keeps
     resurfacing in permuted tails; its infeasibility is a property of
     the set alone, and the proof is reused instead of re-derived.
     Budget-exhausted repairs are never cached here. *)
  let repair_failed = Hashtbl.create 32 in
  (* Shared [Replay.extend] pool for all repair attempts of one search.
     Repair is opportunistic — skipping it only forgoes a recovery, never
     soundness — and on infeasible instances thousands of candidates can
     otherwise each pay an exhaustive re-sequencing that cannot succeed.
     Each attempt is additionally capped so one pathological tail cannot
     drain the pool alone. *)
  let repair_pool = ref 500_000 in
  let heap = Heap.create () in
  (* Two-stage heuristic evaluation (the deferred-evaluation trick from
     satisficing planners, applied admissibly): a child is queued with
     the cheap PLRG h_max bound of its pending set, served from the
     oracle's per-id memo, and the expensive SLRG oracle runs only when
     the node reaches the top of the heap — most queued nodes never do,
     and never pay an oracle query.  Since the SLRG h dominates the PLRG
     h, the refined f only grows; re-inserting the popped node under its
     refined value (below) is sound A*.  A candidate solution (empty
     pending set) has the exact h 0 at once.  [f_at set g] is that
     push-time f of a node at [g] pending [set]; a child's is read off
     its parent's candidate row without replaying the child. *)
  let f_at (set : Propset.handle) g =
    if Array.length set.Propset.set = 0 then g else g +. Slrg.h_max_h slrg set
  in
  let child_f node i g = f_at (Supports.successor supports node.set i) g in
  (* Queue [node] under (f, -g, serial) unless it is a duplicate. *)
  let queue node f =
    let solution = Array.length node.set.Propset.set = 0 in
    let fresh =
      solution
      ||
      (* One probe: [replace] grows the table exactly when the key is
         new. *)
      let before = Ktbl.length seen_keys in
      Ktbl.replace seen_keys
        { Key.sid = node.set.Propset.id; zh = node.zh; acts = node.acts }
        ();
      Ktbl.length seen_keys > before
    in
    if not fresh then incr duplicates
    else begin
      incr created;
      if not solution then incr deferred;
      Heap.add heap ~prio:f ~prio2:(-.node.g) ~seq:node.serial node
    end
  in
  let mk ~tail ~set ~g ~serial ~acts ~zh ~rs =
    {
      tail;
      set;
      g;
      serial;
      acts;
      zh;
      rs;
      refined = Array.length set.Propset.set = 0;
      base = -1;
      pending = [||];
      next = 0;
    }
  in
  (* Replay the child through slot [i] of [node]'s candidate row and
     queue it, unless replay prunes it. *)
  let generate node cands i g f =
    incr replayed;
    let aid = cands.(i) in
    let a = pb.actions.(aid) in
    match Replay.extend pb ~mode:Replay.Regression node.rs a with
    | Error _ -> incr replay_pruned
    | Ok rs ->
        queue
          (mk ~tail:(a :: node.tail)
             ~set:(Supports.successor supports node.set i)
             ~g ~serial:(node.base + i) ~acts:(Iset.add aid node.acts)
             ~zh:(node.zh lxor zobrist aid) ~rs)
          f
  in
  (* Scratch for one first expansion: the slots it leaves pending, with
     their children's f and g, kept sorted on (f, -g, slot) by
     insertion as the row is walked in slot order (rows hold tens of
     candidates). *)
  let held = ref (Array.make 64 0)
  and held_f = ref (Float.Array.make 64 0.)
  and held_g = ref (Float.Array.make 64 0.) in
  let hold m i f g =
    if m = Array.length !held then begin
      let grow a =
        let a' = Float.Array.make (2 * m) 0. in
        Float.Array.blit a 0 a' 0 m;
        a'
      in
      held := Array.append !held !held;
      held_f := grow !held_f;
      held_g := grow !held_g
    end;
    let hs = !held and hf = !held_f and hg = !held_g in
    let j = ref m in
    while
      !j > 0
      &&
      let fj = Float.Array.get hf (!j - 1) in
      fj > f || (fj = f && Float.Array.get hg (!j - 1) < g)
    do
      hs.(!j) <- hs.(!j - 1);
      Float.Array.set hf !j (Float.Array.get hf (!j - 1));
      Float.Array.set hg !j (Float.Array.get hg (!j - 1));
      decr j
    done;
    hs.(!j) <- i;
    Float.Array.set hf !j f;
    Float.Array.set hg !j g
  in
  (* Partial Expansion A*: a node's first expansion reserves one
     serial per candidate slot and computes every child's push-time f
     without replaying it.  It generates the children whose f is at
     most the node's own popped f, drops those with infinite f, and
     queues the node again under the key of its least pending child:
     each later pop generates the next f-level of the row, until it is
     drained.  A pending child is thus generated before any entry with
     a larger key pops, so the nodes expand in the order an eager
     expansion would give them, and a child whose f is never popped is
     never replayed. *)
  let next_serial = ref 1 in
  let expand node f =
    let cands = Supports.candidates supports node.set in
    node.base <- !next_serial;
    next_serial := !next_serial + Array.length cands;
    let m = ref 0 in
    for i = 0 to Array.length cands - 1 do
      let aid = cands.(i) in
      if not (Iset.mem aid node.acts) then begin
        incr considered;
        let g = node.g +. pb.actions.(aid).Action.cost_lb in
        let fi = child_f node i g in
        if fi <= f then generate node cands i g fi
        else if Float.is_finite fi then begin
          hold !m i fi g;
          incr m
        end
      end
    done;
    if !m > 0 then begin
      node.pending <- Array.sub !held 0 !m;
      Heap.add heap
        ~prio:(Float.Array.get !held_f 0)
        ~prio2:(-.Float.Array.get !held_g 0)
        ~seq:(node.base + !held.(0))
        node
    end
  in
  let next_level node f =
    let cands = Supports.candidates supports node.set in
    let rec go () =
      if node.next < Array.length node.pending then
        let i = node.pending.(node.next) in
        let g = node.g +. pb.actions.(cands.(i)).Action.cost_lb in
        let fi = child_f node i g in
        if fi <= f then begin
          node.next <- node.next + 1;
          generate node cands i g fi;
          go ()
        end
        else Heap.add heap ~prio:fi ~prio2:(-.g) ~seq:(node.base + i) node
    in
    go ()
  in
  (let root =
     mk ~tail:[]
       ~set:(Propset.intern ctx (Propset.canonical_array pb pb.goal_props))
       ~g:0. ~serial:0 ~acts:Iset.empty ~zh:0 ~rs:(Replay.initial pb)
   in
   let f = f_at root.set 0. in
   if Float.is_finite f then queue root f);
  let finish result =
    ( result,
      {
        created = !created;
        expanded = !expanded;
        open_left = Heap.length heap;
        replay_pruned = !replay_pruned;
        ungenerated = !considered - !replayed;
        final_replay_rejected = !final_rejected;
        duplicates = !duplicates;
        order_repaired = !order_repaired;
        slrg_deferred = !deferred;
        slrg_saved = !deferred - !refined_count;
      } )
  in
  (* The popped node's f is the frontier minimum, an admissible lower
     bound on any plan a longer search could still find; its tail and
     pending set are rendered here, once, as the failure's evidence. *)
  let cutoff by node f =
    finish
      (Cutoff
         {
           by;
           expansions = !expanded;
           frontier =
             {
               best_f = f;
               tail = List.map (fun (a : Action.t) -> a.Action.label) node.tail;
               unmet =
                 Array.to_list node.set.Propset.set
                 |> List.map (Problem.prop_label pb);
             };
         })
  in
  let rec loop () =
    if Heap.is_empty heap then finish Exhausted
    else
      let f = Heap.top_prio heap in
      let node = Heap.pop_value heap in
      if node.base >= 0 then begin
        (* An expanded node standing for its least pending child. *)
        next_level node f;
        loop ()
      end
      else if not node.refined then begin
        (* Second heuristic stage, on pop: refine the cheap bound with
           the SLRG oracle and re-insert unless the node is still the
           frontier minimum under the full (f, -g, serial) order — the
           serial is preserved, so ties resolve exactly as if the node
           had been queued with the refined value from the start. *)
        incr refined_count;
        let h = Slrg.query_h slrg node.set in
        if not (Float.is_finite h) then loop ()
        else begin
          node.refined <- true;
          let f' = node.g +. h in
          let still_min =
            f' = f || Heap.is_empty heap || f' < Heap.top_prio heap
          in
          if still_min then process node f'
          else begin
            Heap.add heap ~prio:f' ~prio2:(-.node.g) ~seq:node.serial node;
            loop ()
          end
        end
      end
      else process node f
  and process node f =
    if !expanded >= max_expansions then cutoff `Budget node f
    else if Deadline.expired deadline then cutoff `Deadline node f
    else begin
      incr expanded;
      if progress_interval > 0 && !expanded mod progress_interval = 0 then
        Telemetry.progress telemetry "rg"
          [
            ("expansions", Telemetry.Int !expanded);
            ("open", Telemetry.Int (Heap.length heap));
            ("best_f", Telemetry.Float f);
            ("created", Telemetry.Int !created);
            ("duplicates", Telemetry.Int !duplicates);
          ];
      if Array.length node.set.Propset.set = 0 then begin
        (* Candidate solution: validate against the true initial map. *)
        let akey = Iset.elements node.acts in
        if Hashtbl.mem repair_failed akey then begin
          incr final_rejected;
          loop ()
        end
        else
          match
            Replay.run ~telemetry pb ~mode:Replay.From_init node.tail
          with
          | Ok metrics -> finish (Solution (node.tail, metrics, node.g))
          | Error _ when !repair_pool <= 0 ->
              incr final_rejected;
              loop ()
          | Error _ -> (
              (* The order that survived dedup may be infeasible even
                 though a permutation of the same multiset is fine. *)
              let steps = ref (min 20_000 !repair_pool) in
              let budget = !steps in
              let outcome =
                Telemetry.with_span telemetry "replay.repair" (fun () ->
                    repair_search ~steps pb node.tail)
              in
              repair_pool := !repair_pool - (budget - !steps);
              match outcome with
              | Repaired (tail', metrics) ->
                  incr order_repaired;
                  finish (Solution (tail', metrics, node.g))
              | Infeasible ->
                  Hashtbl.replace repair_failed akey ();
                  incr final_rejected;
                  loop ()
              | Gave_up ->
                  incr final_rejected;
                  loop ())
      end
      else begin
        expand node f;
        loop ()
      end
    end
  in
  loop ()

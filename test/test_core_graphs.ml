(* Unit tests for Sekitei_core.Plrg and Sekitei_core.Slrg. *)

module Compile = Sekitei_core.Compile
module Problem = Sekitei_core.Problem
module Prop = Sekitei_core.Prop
module Plrg = Sekitei_core.Plrg
module Slrg = Sekitei_core.Slrg
module Media = Sekitei_domains.Media
module Model = Sekitei_spec.Model
module G = Sekitei_network.Generators
module T = Sekitei_network.Topology

let tiny level =
  let app = Media.app ~server:0 ~client:1 () in
  Compile.compile (G.line_kinds [ T.Wan ]) app (Media.leveling level app)

let test_init_props_cost_zero () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  Array.iteri
    (fun pid holds ->
      if holds then
        Alcotest.(check (float 0.)) "init prop free" 0. (Plrg.cost plrg pid))
    pb.Problem.init

let test_goal_reachable () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  Alcotest.(check bool) "reachable" true (Plrg.goals_reachable plrg);
  Array.iter
    (fun g ->
      Alcotest.(check bool) "finite goal cost" true
        (Float.is_finite (Plrg.cost plrg g)))
    pb.Problem.goal_props

let test_goal_unreachable_partitioned () =
  (* No links at all: the client node can never receive M. *)
  let app = Media.app ~server:0 ~client:1 () in
  let topo = T.make ~nodes:[ T.node 0 "n0"; T.node 1 "n1" ] ~links:[] in
  let pb = Compile.compile topo app (Media.leveling Media.C app) in
  let plrg = Plrg.build pb in
  Alcotest.(check bool) "unreachable" false (Plrg.goals_reachable plrg)

let test_costs_admissible () =
  (* PLRG costs are lower bounds: the known 7-action plan costs 52.45,
     and the goal's PLRG estimate must not exceed it. *)
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let goal = pb.Problem.goal_props.(0) in
  Alcotest.(check bool) "cost admissible" true (Plrg.cost plrg goal <= 52.45 +. 1e-9)

let test_costs_monotone_structure () =
  (* Availability of M on the far node costs strictly more than on the
     server node (it needs at least one action). *)
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let m = Problem.iface_index pb "M" in
  let near = Prop.avail_id pb.Problem.props ~iface:m ~node:0 ~level:2 in
  let far = Prop.avail_id pb.Problem.props ~iface:m ~node:1 ~level:2 in
  Alcotest.(check (float 0.)) "near free" 0. (Plrg.cost plrg near);
  Alcotest.(check bool) "far costs" true (Plrg.cost plrg far > 0.)

let test_relevant_actions_subset () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let relevant = Plrg.relevant_actions plrg in
  Alcotest.(check bool) "nonempty" true (relevant <> []);
  Alcotest.(check bool) "subset of all" true
    (List.for_all (fun aid -> aid >= 0 && aid < Array.length pb.Problem.actions) relevant);
  List.iter
    (fun aid ->
      Alcotest.(check bool) "flag agrees" true (Plrg.action_relevant plrg aid))
    relevant

let test_stats_counts () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let props, actions = Plrg.stats plrg in
  Alcotest.(check bool) "props positive" true (props > 0);
  Alcotest.(check int) "action count matches list" actions
    (List.length (Plrg.relevant_actions plrg))

(* ---------------- SLRG ---------------- *)

let test_slrg_empty_set () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  Alcotest.(check (float 0.)) "empty set free" 0. (Slrg.query slrg [])

let test_slrg_init_set () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let server = Problem.comp_index pb "Server" in
  let placed = Prop.placed_id pb.Problem.props ~comp:server ~node:0 in
  Alcotest.(check (float 0.)) "init prop free" 0. (Slrg.query slrg [ placed ])

let test_slrg_at_least_plrg () =
  (* The SLRG estimate dominates the PLRG estimate (it accounts for
     serialization). *)
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let goal = pb.Problem.goal_props.(0) in
  Alcotest.(check bool) "slrg >= plrg" true
    (Slrg.query slrg [ goal ] >= Plrg.cost plrg goal -. 1e-9)

let test_slrg_admissible () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let goal = pb.Problem.goal_props.(0) in
  (* The real optimal plan bound is 52.45. *)
  Alcotest.(check bool) "admissible" true (Slrg.query slrg [ goal ] <= 52.45 +. 1e-9)

let test_slrg_set_cost_exceeds_singletons () =
  (* Achieving two distant props together costs at least as much as the
     dearest one alone. *)
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let t = Problem.iface_index pb "T" and i = Problem.iface_index pb "I" in
  let pt = Prop.avail_id pb.Problem.props ~iface:t ~node:1 ~level:1 in
  let pi = Prop.avail_id pb.Problem.props ~iface:i ~node:1 ~level:1 in
  let both = Slrg.query slrg [ pt; pi ] in
  Alcotest.(check bool) "pair >= each" true
    (both >= Slrg.query slrg [ pt ] -. 1e-9
    && both >= Slrg.query slrg [ pi ] -. 1e-9)

let test_slrg_memoized () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let goal = pb.Problem.goal_props.(0) in
  let first = Slrg.query slrg [ goal ] in
  let nodes_after_first = (Slrg.stats slrg).Slrg.nodes in
  let second = Slrg.query slrg [ goal ] in
  Alcotest.(check (float 0.)) "same answer" first second;
  Alcotest.(check int) "no new nodes" nodes_after_first
    (Slrg.stats slrg).Slrg.nodes

let test_slrg_unreachable_infinite () =
  let app = Media.app ~server:0 ~client:1 () in
  let topo = T.make ~nodes:[ T.node 0 "n0"; T.node 1 "n1" ] ~links:[] in
  let pb = Compile.compile topo app (Media.leveling Media.C app) in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let goal = pb.Problem.goal_props.(0) in
  Alcotest.(check bool) "infinite" false
    (Float.is_finite (Slrg.query slrg [ goal ]))

let test_slrg_budget_fallback_admissible () =
  (* With an absurdly small budget the query still returns an admissible
     bound (>= the PLRG value, <= the true optimum). *)
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create ~query_budget:1 pb plrg in
  let goal = pb.Problem.goal_props.(0) in
  let v = Slrg.query slrg [ goal ] in
  Alcotest.(check bool) "between plrg and optimum" true
    (v >= Plrg.cost plrg goal -. 1e-9 && v <= 52.45 +. 1e-9)

let test_slrg_cache_hits_counted () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let goal = pb.Problem.goal_props.(0) in
  ignore (Slrg.query slrg [ goal ]);
  Alcotest.(check int) "first query misses" 0 (Slrg.stats slrg).Slrg.cache_hits;
  ignore (Slrg.query slrg [ goal ]);
  Alcotest.(check int) "second query hits" 1 (Slrg.stats slrg).Slrg.cache_hits

let test_slrg_bound_escalation () =
  (* A query_budget:1 oracle starts with only an exhausted bound for the
     goal set; re-queries escalate the budget geometrically, the answers
     are monotone non-decreasing (each run keeps the strongest bound),
     and within the escalation cap the oracle converges to the value a
     huge-budget oracle computes outright, promoting the cached bound to
     a solved entry on the way. *)
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let small = Slrg.create ~query_budget:1 pb plrg in
  let big = Slrg.create ~query_budget:1_000_000 pb plrg in
  let goal = pb.Problem.goal_props.(0) in
  let exact = Slrg.query big [ goal ] in
  let prev = ref neg_infinity in
  let final = ref Float.nan in
  for _ = 1 to 10 do
    let v = Slrg.query small [ goal ] in
    Alcotest.(check bool) "monotone under escalation" true (v >= !prev -. 1e-9);
    prev := v;
    final := v
  done;
  Alcotest.(check (float 1e-9)) "escalates to the exact value" exact !final;
  Alcotest.(check bool) "bound promoted to solved" true
    ((Slrg.stats small).Slrg.bound_promoted >= 1);
  (* Once solved, further queries are pure cache hits. *)
  let hits = (Slrg.stats small).Slrg.cache_hits in
  ignore (Slrg.query small [ goal ]);
  Alcotest.(check int) "post-promotion query hits cache" (hits + 1)
    (Slrg.stats small).Slrg.cache_hits

let test_slrg_harvest_agrees_with_fresh () =
  (* Every suffix-harvested solved entry must equal what a fresh,
     effectively unbounded oracle computes for the same set from
     scratch — harvesting is a cache fill, not an approximation. *)
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let goal = pb.Problem.goal_props.(0) in
  ignore (Slrg.query slrg [ goal ]);
  Alcotest.(check bool) "harvested beyond the root" true
    ((Slrg.stats slrg).Slrg.suffix_harvested > 0);
  let fresh = Slrg.create ~query_budget:1_000_000 pb plrg in
  let checked = ref 0 in
  Slrg.iter_solved slrg (fun set cost ->
      incr checked;
      let c = Slrg.query_set fresh (Array.copy set) in
      let agree =
        if Float.is_finite cost || Float.is_finite c then
          Float.abs (c -. cost) <= 1e-6
        else true
      in
      Alcotest.(check bool) "harvested entry agrees" true agree);
  Alcotest.(check bool) "solved cache non-trivial" true (!checked > 1)

(* Stored bounds are admissible: a search whose SLRG queries run out of
   budget keeps an open-minimum bound for each exhausted set, and exact
   solves leave [cost - g] bounds on the sets they touched.  Each must
   be at most the set's exact cost, from a fresh oracle with a budget
   no query exhausts. *)
let test_slrg_bounds_admissible () =
  let module Scenarios = Sekitei_harness.Scenarios in
  let module Rg = Sekitei_core.Rg in
  List.iter
    (fun (name, (sc : Scenarios.t)) ->
      let app = sc.Scenarios.app in
      let pb =
        Compile.compile sc.Scenarios.topo app (Media.leveling Media.C app)
      in
      let plrg = Plrg.build pb in
      let slrg = Slrg.create ~query_budget:50 pb plrg in
      ignore (Rg.search pb slrg);
      let exact = Slrg.create ~query_budget:1_000_000 pb plrg in
      let n = ref 0 in
      Slrg.iter_bounds slrg (fun set b ->
          incr n;
          let c = Slrg.query_set exact (Array.copy set) in
          if not (b <= c +. 1e-6) then
            Alcotest.failf "%s: stored bound %g above the exact cost %g"
              name b c);
      Alcotest.(check bool) (name ^ ": bounds stored") true (!n > 0))
    [ ("Small-C", Scenarios.small ()); ("Large-C", Scenarios.large ()) ]

(* ---------------- Propset interner ---------------- *)

module Action = Sekitei_core.Action
module Heap = Sekitei_util.Heap
module Propset = Sekitei_core.Propset
module Supports = Sekitei_core.Supports

let test_interner_canonicalizes () =
  let i = Propset.Interner.create () in
  let h1 = Propset.Interner.intern i [| 1; 4; 9 |] in
  let h2 = Propset.Interner.intern i [| 1; 4; 9 |] in
  Alcotest.(check int) "same id for equal sets" h1.Propset.id h2.Propset.id;
  Alcotest.(check bool) "physically shared representative" true
    (h1.Propset.set == h2.Propset.set);
  let h3 = Propset.Interner.intern i [| 1; 4 |] in
  Alcotest.(check bool) "distinct sets get distinct ids" true
    (h3.Propset.id <> h1.Propset.id);
  Alcotest.(check int) "two distinct sets interned" 2 (Propset.Interner.size i)

let test_interner_dense_ids () =
  let i = Propset.Interner.create () in
  let sets = [ [| 0 |]; [| 0; 1 |]; [| 2; 5; 7 |]; [||] ] in
  List.iteri
    (fun k s ->
      let h = Propset.Interner.intern i s in
      Alcotest.(check int) "ids are dense in first-seen order" k h.Propset.id;
      let back = Propset.Interner.get i h.Propset.id in
      Alcotest.(check bool) "get returns the registered handle" true
        (back.Propset.set == h.Propset.set))
    sets;
  Alcotest.(check bool) "unknown id rejected" true
    (match Propset.Interner.get i 99 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Regression written from its definition, (set \ add-closure) ∪ pre,
   for comparison against the merge kernel. *)
let reference_regress (pb : Problem.t) (set : int array) (a : Action.t) =
  let kept =
    List.filter
      (fun p -> not (Array.mem p a.Action.add_closure))
      (Array.to_list set)
  in
  Propset.canonical pb (kept @ Array.to_list a.Action.pre)

(* The cost of the witness path from [h] in [slrg], if every edge is
   sound in [pb]: it names a [plrg]-relevant action of [pb] that
   regresses the set to the next one, and the path ends at the empty
   set.  [None] otherwise. *)
let witness_path_cost (pb : Problem.t) plrg slrg (h : Propset.handle) =
  let rec walk (h : Propset.handle) sum steps =
    if Array.length h.Propset.set = 0 then Some sum
    else if steps = 0 then None
    else
      match Slrg.witness slrg h with
      | None -> None
      | Some (a, next) ->
          if
            a < Array.length pb.Problem.actions
            && Plrg.action_relevant plrg a
            && reference_regress pb h.Propset.set pb.Problem.actions.(a)
               = next.Propset.set
          then
            walk next
              (sum +. pb.Problem.actions.(a).Action.cost_lb)
              (steps - 1)
          else None
  in
  walk h 0. 10_000

(* Every finite solved entry of [slrg] has a sound witness path in [pb]
   whose cost is the entry. *)
let check_witnesses what pb plrg slrg =
  let ctx = Slrg.ctx slrg in
  let n = ref 0 in
  Slrg.iter_solved slrg (fun set cost ->
      if Float.is_finite cost then begin
        incr n;
        match witness_path_cost pb plrg slrg (Propset.intern ctx set) with
        | Some sum ->
            Alcotest.(check (float 1e-6))
              (what ^ ": witness path cost") cost sum
        | None -> Alcotest.failf "%s: no sound witness path" what
      end);
  Alcotest.(check bool) (what ^ ": witnessed entries") true (!n > 0)

(* Every finite entry of a fresh oracle has a sound witness path. *)
let test_witness_paths () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  ignore (Slrg.query slrg (Array.to_list pb.Problem.goal_props));
  check_witnesses "fresh" pb plrg slrg

(* Successor rows: every candidate row is the ascending list of the
   set's distinct PLRG-relevant supporters, every slot is the interned
   regression through its candidate, a re-read is the physically same
   handle, and all of it still holds for the rows rebuilt when a warm
   oracle is shrunk onto a recompiled problem. *)
let check_successor_rows what (pb : Problem.t) plrg slrg =
  let ctx = Slrg.ctx slrg and sup = Slrg.supports slrg in
  let n0 = Propset.interned_count ctx in
  let slots = ref 0 in
  for id = 0 to n0 - 1 do
    let h = Propset.handle_of_id ctx id in
    let cands = Supports.candidates sup h in
    Alcotest.(check bool)
      (what ^ ": candidate row is memoized") true
      (cands == Supports.candidates sup h);
    Alcotest.(check (list int))
      (Printf.sprintf "%s: candidates of set %d" what id)
      (List.sort_uniq Int.compare
         (List.concat_map
            (fun p -> List.filter (Plrg.action_relevant plrg) pb.Problem.supports.(p))
            (Array.to_list h.Propset.set)))
      (Array.to_list cands);
    Array.iteri
      (fun i aid ->
        let s = Supports.successor sup h i in
        let expect =
          Propset.intern ctx
            (reference_regress pb h.Propset.set pb.Problem.actions.(aid))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: slot %d of set %d is its regression" what i id)
          true (s == expect);
        Alcotest.(check bool)
          (what ^ ": second read is the same handle") true
          (Supports.successor sup h i == s);
        incr slots)
      cands
  done;
  Alcotest.(check bool) (what ^ ": rows checked") true (!slots > 0)

let test_successor_rows () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  ignore (Slrg.query slrg (Array.to_list pb.Problem.goal_props));
  check_successor_rows "cold" pb plrg slrg;
  let pb' = tiny Media.C in
  let plrg' = Plrg.build pb' in
  let map = Array.init (Array.length pb'.Problem.actions) Fun.id in
  let evicted = Slrg.shrink slrg pb' plrg' ~map in
  Alcotest.(check int) "identity shrink evicts nothing" 0 evicted;
  ignore (Slrg.query slrg (Array.to_list pb'.Problem.goal_props));
  check_successor_rows "after shrink" pb' plrg' slrg

(* The search kernels allocate nothing on their hot paths once warm:
   a filled successor slot, a regression whose result is already
   interned, and the heap's minimum reads and pops.  Each loop's
   allocation is compared with an empty loop measured the same way, so
   the two reads of the allocation counter cancel out.  [top_prio] is
   left out: a float returned across modules is boxed unless the call
   is inlined, which the development profile does not do. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_kernels_allocation_free () =
  let pb = tiny Media.C in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  ignore (Slrg.query slrg (Array.to_list pb.Problem.goal_props));
  let ctx = Slrg.ctx slrg and sup = Slrg.supports slrg in
  let h = Propset.handle_of_id ctx 0 in
  let cands = Supports.candidates sup h in
  Alcotest.(check bool) "root has candidates" true (Array.length cands > 0);
  let a = pb.Problem.actions.(cands.(0)) in
  ignore (Supports.successor sup h 0);
  ignore (Propset.regress_intern ctx h.Propset.set a);
  let heap = Heap.create () in
  for i = 1 to 1000 do
    Heap.add heap ~prio:(float_of_int (i mod 7)) i
  done;
  let n = 1000 in
  let calibration =
    minor_words_of (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity h)
        done)
  in
  let check what f =
    Alcotest.(check (float 0.))
      (what ^ " allocates nothing")
      0.
      (minor_words_of f -. calibration)
  in
  check "successor hit" (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Supports.successor sup h 0))
      done);
  check "regress_intern hit" (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Propset.regress_intern ctx h.Propset.set a))
      done);
  check "top_seq" (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Heap.top_seq heap))
      done);
  check "pop_value" (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Heap.pop_value heap))
      done);
  Alcotest.(check bool) "heap drained" true (Heap.is_empty heap)

let suite =
  [
    ("plrg init props cost zero", `Quick, test_init_props_cost_zero);
    ("interner canonicalizes", `Quick, test_interner_canonicalizes);
    ("interner dense ids", `Quick, test_interner_dense_ids);
    ("successor rows", `Quick, test_successor_rows);
    ("witness paths", `Quick, test_witness_paths);
    ("kernels allocation-free", `Quick, test_kernels_allocation_free);
    ("plrg goal reachable", `Quick, test_goal_reachable);
    ("plrg goal unreachable partitioned", `Quick, test_goal_unreachable_partitioned);
    ("plrg admissible", `Quick, test_costs_admissible);
    ("plrg cost structure", `Quick, test_costs_monotone_structure);
    ("plrg relevant actions", `Quick, test_relevant_actions_subset);
    ("plrg stats", `Quick, test_stats_counts);
    ("slrg empty set", `Quick, test_slrg_empty_set);
    ("slrg init set", `Quick, test_slrg_init_set);
    ("slrg dominates plrg", `Quick, test_slrg_at_least_plrg);
    ("slrg admissible", `Quick, test_slrg_admissible);
    ("slrg set vs singletons", `Quick, test_slrg_set_cost_exceeds_singletons);
    ("slrg memoized", `Quick, test_slrg_memoized);
    ("slrg unreachable infinite", `Quick, test_slrg_unreachable_infinite);
    ("slrg budget fallback", `Quick, test_slrg_budget_fallback_admissible);
    ("slrg cache hits counted", `Quick, test_slrg_cache_hits_counted);
    ("slrg bound escalation", `Quick, test_slrg_bound_escalation);
    ("slrg harvest agrees with fresh", `Quick, test_slrg_harvest_agrees_with_fresh);
    ("slrg stored bounds admissible", `Quick, test_slrg_bounds_admissible);
  ]

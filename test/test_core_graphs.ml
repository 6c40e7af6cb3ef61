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
  let nodes_after_first = Slrg.nodes_generated slrg in
  let second = Slrg.query slrg [ goal ] in
  Alcotest.(check (float 0.)) "same answer" first second;
  Alcotest.(check int) "no new nodes" nodes_after_first (Slrg.nodes_generated slrg)

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
  Alcotest.(check int) "first query misses" 0 (Slrg.cache_hits slrg);
  ignore (Slrg.query slrg [ goal ]);
  Alcotest.(check int) "second query hits" 1 (Slrg.cache_hits slrg)

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
    (Slrg.bound_promoted small >= 1);
  (* Once solved, further queries are pure cache hits. *)
  let hits = Slrg.cache_hits small in
  ignore (Slrg.query small [ goal ]);
  Alcotest.(check int) "post-promotion query hits cache" (hits + 1)
    (Slrg.cache_hits small)

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
    (Slrg.suffix_harvested slrg > 0);
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

(* ---------------- Propset interner ---------------- *)

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

(* Successor rows: every slot of every interned set's row is the
   interned regression through its candidate, a re-read is the
   physically same handle, and both still hold for the rows rebuilt when
   a warm oracle is rebound to a recompiled problem. *)
let check_successor_rows what (pb : Problem.t) slrg =
  let ctx = Slrg.ctx slrg and sup = Slrg.supports slrg in
  let n0 = Propset.interned_count ctx in
  let slots = ref 0 in
  for id = 0 to n0 - 1 do
    let h = Propset.handle_of_id ctx id in
    let cands = Supports.candidates sup h in
    Alcotest.(check bool)
      (what ^ ": candidate row is memoized") true
      (cands == Supports.candidates sup h);
    Array.iteri
      (fun i aid ->
        let s = Supports.successor sup h i in
        let expect =
          Propset.intern ctx
            (Propset.regress ctx h.Propset.set pb.Problem.actions.(aid))
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
  check_successor_rows "cold" pb slrg;
  let pb' = tiny Media.C in
  let plrg' = Plrg.build pb' in
  let evicted = Slrg.refresh slrg pb' plrg' ~dirty:(fun _ -> false) in
  Alcotest.(check int) "clean refresh evicts nothing" 0 evicted;
  ignore (Slrg.query slrg (Array.to_list pb'.Problem.goal_props));
  check_successor_rows "after refresh" pb' slrg

let suite =
  [
    ("plrg init props cost zero", `Quick, test_init_props_cost_zero);
    ("interner canonicalizes", `Quick, test_interner_canonicalizes);
    ("interner dense ids", `Quick, test_interner_dense_ids);
    ("successor rows", `Quick, test_successor_rows);
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
  ]

(* Property-based tests (QCheck, run through alcotest): interval
   arithmetic soundness, expression evaluation laws, heap ordering,
   generator invariants, and end-to-end planner soundness on randomized
   instances. *)

module Q = QCheck
module I = Sekitei_util.Interval
module Heap = Sekitei_util.Heap
module Prng = Sekitei_util.Prng
module E = Sekitei_expr.Expr
module G = Sekitei_network.Generators
module T = Sekitei_network.Topology
module Media = Sekitei_domains.Media
module Leveling = Sekitei_spec.Leveling
module Planner = Sekitei_core.Planner
module Session = Sekitei_core.Session
module Plan = Sekitei_core.Plan
module Replay = Sekitei_core.Replay
module Compile = Sekitei_core.Compile
module Problem = Sekitei_core.Problem
module Plrg = Sekitei_core.Plrg
module Slrg = Sekitei_core.Slrg
module Rg = Sekitei_core.Rg

let count = 200

(* ---------------- interval properties ---------------- *)

let pos_float = Q.Gen.map (fun x -> Float.abs x +. 0.001) (Q.Gen.float_bound_exclusive 1000.)

let interval_gen =
  Q.Gen.map2
    (fun lo w -> I.make lo (lo +. w))
    pos_float pos_float

let arb_interval = Q.make ~print:I.to_string interval_gen

let prop_inter_subset =
  Q.Test.make ~count ~name:"inter is a subset of both"
    (Q.pair arb_interval arb_interval)
    (fun (a, b) ->
      match I.inter a b with
      | None -> true
      | Some c -> I.subset c a && I.subset c b)

let prop_inter_commutative =
  Q.Test.make ~count ~name:"inter commutative"
    (Q.pair arb_interval arb_interval)
    (fun (a, b) ->
      match (I.inter a b, I.inter b a) with
      | Some x, Some y -> I.equal x y
      | None, None -> true
      | _ -> false)

let prop_hull_superset =
  Q.Test.make ~count ~name:"hull contains both"
    (Q.pair arb_interval arb_interval)
    (fun (a, b) ->
      let h = I.hull a b in
      I.subset a h && I.subset b h)

let prop_add_sound =
  Q.Test.make ~count ~name:"add encloses pointwise sums"
    (Q.triple arb_interval arb_interval (Q.float_range 0. 1.))
    (fun (a, b, t) ->
      let x = I.lo a +. (t *. (I.hi a -. I.lo a)) in
      let y = I.lo b +. (t *. (I.hi b -. I.lo b)) in
      let s = I.add a b in
      I.lo s -. 1e-6 <= x +. y && x +. y <= I.hi s +. 1e-6)

let prop_scale_width =
  Q.Test.make ~count ~name:"scale multiplies width"
    (Q.pair arb_interval (Q.float_range 0.1 10.))
    (fun (a, k) ->
      Float.abs (I.width (I.scale k a) -. (k *. I.width a)) < 1e-6)

let prop_interval_ops_wellformed =
  (* add/sub/scale must return intervals honoring the lo <= hi invariant
     outright — Interval.sub used to silently swap inverted bounds, which
     could only mask a corrupted operand. *)
  Q.Test.make ~count ~name:"add/sub/scale preserve lo <= hi"
    (Q.triple arb_interval arb_interval (Q.float_range 0. 10.))
    (fun (a, b, k) ->
      let ok i = I.lo i <= I.hi i in
      ok (I.add a b) && ok (I.sub a b) && ok (I.scale k a))

let prop_cutpoints_partition =
  Q.Test.make ~count ~name:"cutpoint levels partition [0,inf)"
    (Q.pair (Q.list_of_size (Q.Gen.int_range 1 6) (Q.float_range 0.5 500.))
       (Q.float_range 0. 600.))
    (fun (cuts, x) ->
      let cuts = List.sort_uniq compare cuts in
      let levels = I.of_cutpoints cuts in
      List.length (List.filter (I.mem x) levels) = 1)

(* ---------------- expression properties ---------------- *)

(* Random monotone-friendly expressions over x and y: constants are
   non-negative; division only by positive constants. *)
let expr_gen =
  let open Q.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun c -> E.Const (Float.abs c)) (float_bound_exclusive 50.);
                oneofl [ E.Var "x"; E.Var "y" ];
              ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map2 (fun a b -> E.Add (a, b)) sub sub;
                map2 (fun a b -> E.Sub (a, b)) sub sub;
                map2 (fun a b -> E.Min (a, b)) sub sub;
                map2 (fun a b -> E.Max (a, b)) sub sub;
                map2
                  (fun a c -> E.Mul (a, E.Const (Float.abs c)))
                  sub (float_bound_exclusive 10.);
                map2
                  (fun a c -> E.Div (a, E.Const (Float.abs c +. 0.5)))
                  sub (float_bound_exclusive 10.);
              ])
        (min n 6))

let arb_expr = Q.make ~print:E.to_string expr_gen

let prop_parse_print_roundtrip =
  Q.Test.make ~count ~name:"parse (to_string e) evaluates like e" arb_expr
    (fun e ->
      let env v = match v with "x" -> 3.25 | "y" -> 7.5 | _ -> raise Not_found in
      let v1 = E.eval ~env e in
      let v2 = E.eval ~env (E.parse (E.to_string e)) in
      Float.abs (v1 -. v2) <= 1e-9 *. Float.max 1. (Float.abs v1))

let prop_simplify_preserves =
  Q.Test.make ~count ~name:"simplify preserves evaluation" arb_expr (fun e ->
      let env v = match v with "x" -> 2.5 | "y" -> 0.75 | _ -> raise Not_found in
      let v1 = E.eval ~env e and v2 = E.eval ~env (E.simplify e) in
      Float.abs (v1 -. v2) <= 1e-9 *. Float.max 1. (Float.abs v1))

let prop_interval_encloses =
  Q.Test.make ~count ~name:"interval evaluation encloses point evaluation"
    (Q.triple arb_expr (Q.float_range 0. 1.) (Q.float_range 0. 1.))
    (fun (e, tx, ty) ->
      let ix = I.make 1. 9. and iy = I.make 2. 4. in
      let ienv v = match v with "x" -> ix | "y" -> iy | _ -> raise Not_found in
      let enclosure = E.eval_interval ~env:ienv e in
      let x = I.lo ix +. (tx *. (I.hi ix -. I.lo ix)) in
      let y = I.lo iy +. (ty *. (I.hi iy -. I.lo iy)) in
      let env v = match v with "x" -> x | "y" -> y | _ -> raise Not_found in
      let v = E.eval ~env e in
      I.lo enclosure -. 1e-6 <= v && v <= I.hi enclosure +. 1e-6)

let prop_monotonicity_sampled =
  Q.Test.make ~count ~name:"claimed monotonicity holds on samples" arb_expr
    (fun e ->
      let eval_at x =
        E.eval ~env:(function "x" -> x | "y" -> 3. | _ -> raise Not_found) e
      in
      match E.monotonicity e "x" with
      | E.Increasing ->
          eval_at 1. <= eval_at 2. +. 1e-9 && eval_at 2. <= eval_at 8. +. 1e-9
      | E.Decreasing ->
          eval_at 1. +. 1e-9 >= eval_at 2. && eval_at 2. +. 1e-9 >= eval_at 8.
      | E.Constant ->
          Float.abs (eval_at 1. -. eval_at 8.) <= 1e-9
      | E.Unknown -> true)

(* ---------------- heap property ---------------- *)

let prop_heap_sorts =
  Q.Test.make ~count ~name:"heap drains in sorted order"
    (Q.list (Q.float_range (-100.) 100.))
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.add h ~prio:x x) xs;
      let drained = List.map snd (Heap.to_sorted_list h) in
      drained = List.sort compare xs)

(* ---------------- prng property ---------------- *)

let prop_prng_bounds =
  Q.Test.make ~count ~name:"prng int stays in bounds"
    (Q.pair (Q.map (fun i -> Int64.of_int i) Q.int) (Q.int_range 1 1000))
    (fun (seed, n) ->
      let t = Prng.create ~seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let v = Prng.int t n in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

(* ---------------- generator properties ---------------- *)

let prop_transit_stub_connected =
  Q.Test.make ~count:30 ~name:"transit-stub networks connected with right size"
    (Q.quad (Q.map Int64.of_int Q.int) (Q.int_range 1 4) (Q.int_range 0 3)
       (Q.int_range 1 6))
    (fun (seed, transit, stubs, stub_size) ->
      let rng = Prng.create ~seed in
      let t =
        G.transit_stub ~rng ~transit ~stubs_per_transit:stubs ~stub_size ()
      in
      T.is_connected t
      && T.node_count t = transit * (1 + (stubs * stub_size)))

(* ---------------- planner soundness on random instances ---------------- *)

(* Random 3-node line networks with random bandwidths and CPU, shared by
   the end-to-end planner properties below. *)
let media_line_instance (bw1, bw2, cpu, demand) =
  let topo =
    T.make
      ~nodes:(List.init 3 (fun i -> T.node ~cpu i (Printf.sprintf "n%d" i)))
      ~links:[ T.link ~bw:bw1 T.Lan 0 0 1; T.link ~bw:bw2 T.Wan 1 1 2 ]
  in
  let app = Media.app ~demand ~server:0 ~client:2 () in
  let leveling =
    Leveling.propagate app
      (Leveling.with_iface Leveling.empty "M" "ibw"
         [ demand; demand +. 10.; 150. ])
  in
  (topo, app, leveling)

let arb_instance =
  Q.quad (Q.float_range 20. 160.) (Q.float_range 20. 160.)
    (Q.float_range 5. 60.) (Q.float_range 30. 110.)

(* Whenever the planner returns a plan it must replay from the initial
   state and deliver the demand. *)
let prop_planner_sound =
  (* A tight RG budget keeps pathological random instances cheap; a
     budget-exceeded outcome counts as "no plan", which the property
     accepts. *)
  let config =
    { Planner.default_config with Planner.rg_max_expansions = 5_000 }
  in
  Q.Test.make ~count:25 ~name:"planner plans always validate" arb_instance
    (fun inst ->
      let (_, _, _, demand) = inst in
      let topo, app, leveling = media_line_instance inst in
      let pb = Compile.compile topo app leveling in
      match (Planner.plan (Planner.request ~config topo app ~leveling)).Planner.result with
      | Error _ -> true (* infeasibility is an acceptable outcome *)
      | Ok p -> (
          match Replay.run pb ~mode:Replay.From_init p.Plan.steps with
          | Error _ -> false
          | Ok m ->
              let m_i = Problem.iface_index pb "M" in
              let delivered =
                List.find_map
                  (fun (i, n, v) -> if i = m_i && n = 2 then Some v else None)
                  m.Replay.delivered
              in
              (match delivered with
              | Some v -> v >= demand -. 1e-6
              | None -> false)
              && p.Plan.cost_lb <= m.Replay.realized_cost +. 1e-6))

(* ---------------- telemetry is observation-only ---------------- *)

(* Running the planner with a memory-sink telemetry handle must return
   exactly the same plan, cost and search statistics as the null handle:
   tracing observes the search, it never steers it. *)
let prop_telemetry_transparent =
  let config =
    { Planner.default_config with Planner.rg_max_expansions = 5_000 }
  in
  Q.Test.make ~count:15 ~name:"telemetry never changes the outcome"
    arb_instance
    (fun inst ->
      let topo, app, leveling = media_line_instance inst in
      let quiet = Planner.plan (Planner.request ~config topo app ~leveling) in
      let sink, events = Sekitei_telemetry.Telemetry.memory () in
      let telemetry = Sekitei_telemetry.Telemetry.create [ sink ] in
      let traced =
        Planner.plan (Planner.request ~config ~telemetry topo app ~leveling)
      in
      Sekitei_telemetry.Telemetry.close telemetry;
      let same_result =
        match (quiet.Planner.result, traced.Planner.result) with
        | Ok p1, Ok p2 ->
            Plan.labels p1 = Plan.labels p2
            && Float.abs (p1.Plan.cost_lb -. p2.Plan.cost_lb) < 1e-9
        | Error r1, Error r2 -> r1 = r2
        | _ -> false
      in
      let s1 = quiet.Planner.stats and s2 = traced.Planner.stats in
      same_result
      && s1.Planner.rg_created = s2.Planner.rg_created
      && s1.Planner.rg_expanded = s2.Planner.rg_expanded
      && s1.Planner.rg_duplicates = s2.Planner.rg_duplicates
      && s1.Planner.slrg_nodes = s2.Planner.slrg_nodes
      && s1.Planner.slrg_queries = s2.Planner.slrg_queries
      && s1.Planner.slrg_cache_hits = s2.Planner.slrg_cache_hits
      && s1.Planner.slrg_suffix_harvested = s2.Planner.slrg_suffix_harvested
      && s1.Planner.slrg_bound_promoted = s2.Planner.slrg_bound_promoted
      && s1.Planner.order_repaired = s2.Planner.order_repaired
      && events () <> [])

(* ---------------- recorded heuristics are admissible ---------------- *)

(* The h-quality profiler records (g, h_slrg, h_plrg) for every node on
   the accepted solution path; both heuristics must satisfy
   h <= C* - g (the realized cost-to-go) or the optimality claim is
   void.  Randomizing the SLRG query budget exercises the bounded-answer
   path of the oracle: answers cut off by the budget are still lower
   bounds and must stay admissible. *)
let prop_h_admissible =
  let module Scenarios = Sekitei_harness.Scenarios in
  let gen =
    Q.Gen.triple
      (Q.Gen.oneofl [ `Tiny; `Small ])
      (Q.Gen.oneofl [ Media.B; Media.C; Media.D; Media.E ])
      (Q.Gen.int_range 100 5_000)
  in
  let print (net, level, budget) =
    Printf.sprintf "%s-%s slrg_budget=%d"
      (match net with `Tiny -> "Tiny" | `Small -> "Small")
      (Media.scenario_name level) budget
  in
  Q.Test.make ~count:20 ~name:"profiled h admissible on the solution path"
    (Q.make ~print gen)
    (fun (net, level, budget) ->
      let sc =
        match net with
        | `Tiny -> Scenarios.tiny ()
        | `Small -> Scenarios.small ()
      in
      let config =
        { Planner.default_config with
          Planner.profile_h = true;
          slrg_query_budget = budget;
          rg_max_expansions = 20_000 }
      in
      let leveling = Media.leveling level sc.Scenarios.app in
      let r =
        Planner.plan
          (Planner.request ~config sc.Scenarios.topo sc.Scenarios.app ~leveling)
      in
      match (r.Planner.result, r.Planner.hquality) with
      | Error _, _ -> true (* some levels are infeasible; that's fine *)
      | Ok _, (None | Some []) -> false (* solved + profiled must sample *)
      | Ok p, Some samples ->
          List.for_all
            (fun (s : Rg.hsample) ->
              let togo = p.Plan.cost_lb -. s.Rg.g in
              s.Rg.h_slrg <= togo +. 1e-6 && s.Rg.h_plrg <= togo +. 1e-6)
            samples)

(* ---------------- order repair equals brute force ---------------- *)

let rec insert_everywhere x = function
  | [] -> [ [ x ] ]
  | y :: ys ->
      (x :: y :: ys) :: List.map (fun l -> y :: l) (insert_everywhere x ys)

let rec permutations = function
  | [] -> [ [] ]
  | x :: xs -> List.concat_map (insert_everywhere x) (permutations xs)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The backtracking order repair must agree with brute-force search over
   all permutations of the tail: it finds a feasible execution order
   exactly when one exists (tails capped at 6 actions, 720 permutations).
   Both a shuffled feasible plan and a random strict subset of it are
   checked, exercising the recoverable and unrecoverable polarities. *)
let prop_repair_equals_bruteforce =
  let config =
    { Planner.default_config with Planner.rg_max_expansions = 5_000 }
  in
  Q.Test.make ~count:20 ~name:"order repair matches brute-force feasibility"
    (Q.pair arb_instance (Q.int_range 0 9999))
    (fun (inst, seed) ->
      let topo, app, leveling = media_line_instance inst in
      let pb = Compile.compile topo app leveling in
      match
        (Planner.plan (Planner.request ~config topo app ~leveling))
          .Planner.result
      with
      | Error _ -> true
      | Ok p when List.length p.Plan.steps > 6 -> true
      | Ok p ->
          let rng = Prng.create ~seed:(Int64.of_int seed) in
          let check tail =
            let feasible =
              List.exists
                (fun o -> Result.is_ok (Replay.run pb ~mode:Replay.From_init o))
                (permutations tail)
            in
            match Rg.repair_order pb (shuffle rng tail) with
            | Some (order, _) ->
                feasible
                && Result.is_ok (Replay.run pb ~mode:Replay.From_init order)
            | None -> not feasible
          in
          check p.Plan.steps
          &&
          match p.Plan.steps with
          | [] | [ _ ] -> true
          | steps ->
              let drop = Prng.int rng (List.length steps) in
              check (List.filteri (fun i _ -> i <> drop) steps))

(* ---------------- SLRG suffix harvesting is exact ---------------- *)

(* Every solved cache entry left behind by a planner run — queried roots
   and suffix-harvested chain sets alike — must equal what a fresh,
   effectively unbounded oracle computes for that set from scratch. *)
let prop_slrg_harvest_agrees =
  Q.Test.make ~count:15 ~name:"SLRG harvested entries agree with fresh oracle"
    arb_instance
    (fun inst ->
      let topo, app, leveling = media_line_instance inst in
      let pb = Compile.compile topo app leveling in
      let plrg = Plrg.build pb in
      if not (Plrg.goals_reachable plrg) then true
      else begin
        let slrg = Slrg.create pb plrg in
        ignore (Rg.search ~max_expansions:2_000 pb plrg slrg);
        let fresh = Slrg.create ~query_budget:1_000_000 pb plrg in
        let ok = ref true in
        Slrg.iter_solved slrg (fun set cost ->
            let c = Slrg.query_set fresh (Array.copy set) in
            let agree =
              if Float.is_finite cost || Float.is_finite c then
                Float.abs (c -. cost) <= 1e-6
              else true
            in
            if not agree then ok := false);
        !ok
      end)

(* ---------------- warm session re-plans equal cold plans ---------------- *)

(* The Session contract: after any sequence of deltas, a warm re-plan
   agrees with a cold plan of the session's current topology on the
   result constructor and the optimal cost bound.  It deliberately does
   NOT demand a bit-identical replay.  Exact oracle values are
   path-independent only mathematically: a set with several
   equally-optimal support paths gets its cached cost from whichever
   query harvested it first, float addition is not associative, and a
   warm oracle answers a different query sequence than a cold one — so
   h-values can disagree in the last ulp, enough to swap f-tied frontier
   nodes and return a different equally-cheap optimum.  The generous
   per-query budget removes the other divergence source (see {!Session}):
   a budget-exhausted query records a bound that depends on the shared
   escalation pool.  Each random case threads 1-3 resource deltas
   through one session; deltas that make the spec infeasible are fine —
   warm and cold must then fail with the same constructor. *)
let prop_warm_equals_cold =
  let arb =
    Q.pair arb_instance
      (Q.list_of_size (Q.Gen.int_range 1 3)
         (Q.triple (Q.int_range 0 5) (Q.float_range 5. 160.) Q.bool))
  in
  Q.Test.make ~count:15 ~name:"session warm re-plan equals cold plan" arb
    (fun (inst, deltas) ->
      let topo, app, leveling = media_line_instance inst in
      let config =
        {
          Planner.default_config with
          Planner.rg_max_expansions = 5_000;
          slrg_query_budget = 1_000_000;
        }
      in
      let session =
        Session.create (Planner.request ~config topo app ~leveling)
      in
      ignore (Session.plan session);
      List.iter
        (fun (site, value, is_node) ->
          let delta =
            if is_node then
              Session.Set_node_resource
                { node = site mod 3; resource = "cpu"; value }
            else
              Session.Set_link_resource
                { link = site mod 2; resource = "lbw"; value }
          in
          ignore (Session.update session delta))
        deltas;
      let warm = Session.plan session in
      let cold =
        Planner.plan
          (Planner.request ~config
             (Session.topology session)
             app ~leveling)
      in
      let close a b = Float.abs (a -. b) <= 1e-6 in
      match (warm.Planner.result, cold.Planner.result) with
      | Ok p1, Ok p2 -> close p1.Plan.cost_lb p2.Plan.cost_lb
      | ( Error (Planner.Search_limit { best_f = f1; _ }),
          Error (Planner.Search_limit { best_f = f2; _ }) ) ->
          close f1 f2
      | Error r1, Error r2 -> r1 = r2
      | _ -> false)

(* ---------------- stable link identities ---------------- *)

(* The tentpole contract, pure topology level: across ANY sequence of
   mutations, a link id either still denotes the same physical link
   (same endpoints, same kind) or raises Stale_link from every id-keyed
   accessor — it never aliases a surviving neighbor, the failure mode of
   the old dense renumbering.  The id space and node count never shrink,
   the dense iteration view is exactly the live ids in ascending order,
   and no live link touches a failed node. *)
let prop_link_identity_stable =
  let arb =
    Q.pair (Q.int_range 0 3)
      (Q.list_of_size (Q.Gen.int_range 1 8)
         (Q.triple (Q.int_range 0 3) Q.small_nat (Q.float_range 1. 200.)))
  in
  Q.Test.make ~count:600
    ~name:"link ids denote the same physical link forever" arb
    (fun (shape, deltas) ->
      let module Mutate = Sekitei_network.Mutate in
      let t0 =
        match shape with
        | 0 -> G.line 5
        | 1 -> G.ring 6
        | 2 -> G.grid 3 3
        | _ -> G.star 4
      in
      let pick_live t site =
        let live = T.links t in
        if Array.length live = 0 then None
        else Some (live.(site mod Array.length live)).T.link_id
      in
      let apply t (op, site, v) =
        match op with
        | 0 -> (
            match pick_live t site with
            | None -> t
            | Some id -> Mutate.set_link_resource t id "lbw" v)
        | 1 -> Mutate.set_node_resource t (site mod T.node_count t) "cpu" v
        | 2 -> (
            match pick_live t site with
            | None -> t
            | Some id -> Mutate.remove_link t id)
        | _ -> (
            let alive =
              List.filter (T.node_alive t)
                (List.init (T.node_count t) Fun.id)
            in
            match alive with
            | [] -> t
            | _ -> Mutate.fail_node t (List.nth alive (site mod List.length alive)))
      in
      let t = List.fold_left apply t0 deltas in
      let ids = List.init (T.link_id_bound t) Fun.id in
      T.node_count t = T.node_count t0
      && T.link_id_bound t = T.link_id_bound t0
      && List.for_all
           (fun id ->
             if T.link_is_live t id then
               let l = T.get_link t id and o = T.get_link t0 id in
               l.T.ends = o.T.ends && l.T.kind = o.T.kind
             else
               (match T.get_link t id with
               | _ -> false
               | exception T.Stale_link i -> i = id)
               && (match T.link_resource t id "lbw" with
                  | _ -> false
                  | exception T.Stale_link _ -> true)
               && (match T.peer t id 0 with
                  | _ -> false
                  | exception T.Stale_link _ -> true))
           ids
      && Array.to_list (Array.map (fun l -> l.T.link_id) (T.links t))
         = List.filter (T.link_is_live t) ids
      && Array.for_all
           (fun (l : T.link) ->
             let a, b = l.T.ends in
             T.node_alive t a && T.node_alive t b)
           (T.links t))

(* The same contract observed end to end through the planner: after
   random delta sequences (including removals and node failures), the
   warm re-plan still agrees with a cold plan, and every link id the
   plan or its audit report exposes is live in the current topology and
   denotes exactly the link the Cross action claims to traverse. *)
let prop_plan_ids_stable =
  let diamond () =
    let topo =
      T.make
        ~nodes:
          (List.init 4 (fun i -> T.node ~cpu:30. i (Printf.sprintf "n%d" i)))
        ~links:
          [
            T.link ~bw:150. T.Lan 0 0 1;
            T.link ~bw:150. T.Lan 1 1 3;
            T.link ~bw:150. T.Lan 2 0 2;
            T.link ~bw:150. T.Lan 3 2 3;
          ]
    in
    let app = Media.app ~server:0 ~client:3 () in
    (topo, app, Media.leveling Media.C app)
  in
  let arb =
    Q.list_of_size (Q.Gen.int_range 1 3)
      (Q.triple (Q.int_range 0 3) Q.small_nat (Q.float_range 40. 160.))
  in
  Q.Test.make ~count:20 ~name:"plan/audit link ids stay valid across deltas"
    arb
    (fun deltas ->
      let module Action = Sekitei_core.Action in
      let module Audit = Sekitei_core.Audit in
      let topo, app, leveling = diamond () in
      let config =
        {
          Planner.default_config with
          Planner.rg_max_expansions = 5_000;
          slrg_query_budget = 1_000_000;
        }
      in
      let session = Session.create (Planner.request ~config topo app ~leveling) in
      ignore (Session.plan session);
      List.iter
        (fun (op, site, v) ->
          let t = Session.topology session in
          let live = T.links t in
          let live_id () = (live.(site mod Array.length live)).T.link_id in
          let delta =
            match op with
            | 0 when Array.length live > 0 ->
                Some
                  (Session.Set_link_resource
                     { link = live_id (); resource = "lbw"; value = v })
            | 1 ->
                Some
                  (Session.Set_node_resource
                     { node = site mod 4; resource = "cpu"; value = v })
            | 2 when Array.length live > 1 ->
                Some (Session.Remove_link { link = live_id () })
            | _ -> (
                (* only fail relay nodes, keeping the app's endpoints *)
                match List.filter (T.node_alive t) [ 1; 2 ] with
                | [] -> None
                | cand ->
                    Some
                      (Session.Fail_node
                         { node = List.nth cand (site mod List.length cand) }))
          in
          Option.iter (fun d -> ignore (Session.update session d)) delta)
        deltas;
      let warm = Session.plan session in
      let cur = Session.topology session in
      let cold = Planner.plan (Planner.request ~config cur app ~leveling) in
      let closef a b = Float.abs (a -. b) <= 1e-6 in
      let same_outcome =
        match (warm.Planner.result, cold.Planner.result) with
        | Ok p1, Ok p2 -> closef p1.Plan.cost_lb p2.Plan.cost_lb
        | ( Error (Planner.Search_limit { best_f = f1; _ }),
            Error (Planner.Search_limit { best_f = f2; _ }) ) ->
            closef f1 f2
        | Error r1, Error r2 -> r1 = r2
        | _ -> false
      in
      same_outcome
      &&
      match warm.Planner.result with
      | Error _ -> true
      | Ok p ->
          List.for_all
            (fun (a : Action.t) ->
              match a.Action.kind with
              | Action.Place { node; _ } -> T.node_alive cur node
              | Action.Cross { link; src; dst; _ } ->
                  T.link_is_live cur link
                  && (let l = T.get_link cur link in
                      l.T.ends = (src, dst) || l.T.ends = (dst, src))
                  && T.node_alive cur src && T.node_alive cur dst)
            p.Plan.steps
          &&
          let pb = Compile.compile cur app leveling in
          (match Audit.of_plan pb p with
          | Error _ -> false
          | Ok a ->
              List.for_all
                (fun (r : Audit.link_row) ->
                  T.link_is_live cur r.Audit.link
                  && (T.get_link cur r.Audit.link).T.kind = r.Audit.kind)
                a.Audit.links))

(* ---------------- leveling propagation property ---------------- *)

let prop_propagation_wellformed =
  Q.Test.make ~count:50 ~name:"propagated cutpoints strictly increasing"
    (Q.list_of_size (Q.Gen.int_range 1 5) (Q.float_range 1. 300.))
    (fun cuts ->
      let cuts = List.sort_uniq compare cuts in
      let app = Media.app ~server:0 ~client:1 () in
      let l =
        Leveling.propagate app
          (Leveling.with_iface Leveling.empty "M" "ibw" cuts)
      in
      List.for_all
        (fun (_, _, derived) ->
          let rec increasing = function
            | a :: (b :: _ as rest) -> a < b && increasing rest
            | _ -> true
          in
          increasing derived && List.for_all (fun c -> c > 0.) derived)
        (Leveling.iface_cutpoints l))

(* ---------------- certification and pruning ---------------- *)

module Certify = Sekitei_analysis.Certify
module D = Sekitei_util.Diagnostic
module Action = Sekitei_core.Action

let plan_of inst =
  let topo, app, leveling = media_line_instance inst in
  let config =
    { Planner.default_config with Planner.rg_max_expansions = 5_000 }
  in
  let pb = Compile.compile topo app leveling in
  match (Planner.plan (Planner.request ~config topo app ~leveling)).Planner.result with
  | Ok p -> Some (pb, p)
  | Error _ -> None

(* Every plan the planner emits passes the independent certifier. *)
let prop_plans_certify =
  Q.Test.make ~count:25 ~name:"emitted plans certify clean" arb_instance
    (fun inst ->
      match plan_of inst with
      | None -> true
      | Some (pb, p) -> Certify.check pb p = [])

let first_code pb p =
  match Certify.check pb p with
  | [] -> None
  | d :: _ -> Some d.D.code

(* Doctored plans are rejected, each with the matching SKT code: a
   reversed plan breaks a precondition, a shifted input level cannot be
   met by any stream, a bumped per-action bound disagrees with the
   specification's cost formula, and a rerouted crossing names a link
   that does not join its endpoints. *)
let prop_mutations_rejected =
  Q.Test.make ~count:25 ~name:"mutated plans are rejected" arb_instance
    (fun inst ->
      match plan_of inst with
      | None -> true
      | Some (pb, p) ->
          let reversed_ok =
            List.length p.Plan.steps < 2
            || first_code pb { p with Plan.steps = List.rev p.Plan.steps }
               = Some "SKT201"
          in
          let shifted =
            List.map
              (fun (a : Action.t) ->
                {
                  a with
                  Action.in_levels =
                    Array.map
                      (fun (i, ivl) ->
                        (i, I.make (I.lo ivl +. 1000.) (I.hi ivl +. 1000.)))
                      a.Action.in_levels;
                })
              p.Plan.steps
          in
          let level_ok =
            List.for_all
              (fun (a : Action.t) -> Array.length a.Action.in_levels = 0)
              p.Plan.steps
            || first_code pb { p with Plan.steps = shifted } = Some "SKT202"
          in
          let bumped =
            match p.Plan.steps with
            | a :: rest ->
                { a with Action.cost_lb = a.Action.cost_lb +. 1. } :: rest
            | [] -> []
          in
          let cost_ok =
            p.Plan.steps = []
            || first_code pb { p with Plan.steps = bumped } = Some "SKT207"
          in
          let rerouted =
            List.map
              (fun (a : Action.t) ->
                match a.Action.kind with
                | Action.Cross { iface; link; src; dst } ->
                    {
                      a with
                      Action.kind =
                        Action.Cross { iface; link = 1 - link; src; dst };
                    }
                | Action.Place _ -> a)
              p.Plan.steps
          in
          let reroute_ok =
            List.for_all
              (fun (a : Action.t) ->
                match a.Action.kind with
                | Action.Cross _ -> false
                | Action.Place _ -> true)
              p.Plan.steps
            || first_code pb { p with Plan.steps = rerouted } = Some "SKT208"
          in
          reversed_ok && level_ok && cost_ok && reroute_ok)

(* Dead-action pruning is invisible to the search: an instance whose
   leveling carries a cutpoint above the achievable maximum (the media
   server supplies 200) prunes the unreachable levels, and the RG run
   over the pruned problem returns bit-for-bit the plan of the unpruned
   one — same labels, same cost bound, same realized cost. *)
let prop_prune_bit_identical =
  Q.Test.make ~count:15 ~name:"pruning leaves plans bit-identical"
    arb_instance
    (fun inst ->
      let bw1, bw2, cpu, demand = inst in
      let topo, app, _ = media_line_instance (bw1, bw2, cpu, demand) in
      let leveling =
        Leveling.propagate app
          (Leveling.with_iface Leveling.empty "M" "ibw"
             [ demand; demand +. 10.; 150.; 250. ])
      in
      let pruned = Compile.compile ~prune:true topo app leveling in
      let unpruned = Compile.compile ~prune:false topo app leveling in
      let search pb =
        let plrg = Plrg.build pb in
        let slrg = Slrg.create pb plrg in
        Rg.search ~max_expansions:5_000 pb plrg slrg
      in
      pruned.Problem.pruned_actions > 0
      &&
      match (search pruned, search unpruned) with
      | (Rg.Solution (t1, m1, c1), _), (Rg.Solution (t2, m2, c2), _) ->
          List.map (fun (a : Action.t) -> a.Action.label) t1
          = List.map (fun (a : Action.t) -> a.Action.label) t2
          && Float.equal c1 c2
          && Float.equal m1.Replay.realized_cost m2.Replay.realized_cost
      | (Rg.Exhausted, _), (Rg.Exhausted, _) -> true
      | ( (Rg.Budget_exceeded { best_f = f1; _ }, _),
          (Rg.Budget_exceeded { best_f = f2; _ }, _) ) ->
          (* Neither search finished inside the budget: pruning must not
             have changed the admissible bound either. *)
          Float.equal f1 f2
      | _ -> false)

let to_alcotest = List.map QCheck_alcotest.to_alcotest

let suite =
  to_alcotest
    [
      prop_inter_subset;
      prop_inter_commutative;
      prop_hull_superset;
      prop_add_sound;
      prop_scale_width;
      prop_interval_ops_wellformed;
      prop_cutpoints_partition;
      prop_parse_print_roundtrip;
      prop_simplify_preserves;
      prop_interval_encloses;
      prop_monotonicity_sampled;
      prop_heap_sorts;
      prop_prng_bounds;
      prop_transit_stub_connected;
      prop_planner_sound;
      prop_telemetry_transparent;
      prop_h_admissible;
      prop_repair_equals_bruteforce;
      prop_slrg_harvest_agrees;
      prop_warm_equals_cold;
      prop_link_identity_stable;
      prop_plan_ids_stable;
      prop_propagation_wellformed;
      prop_plans_certify;
      prop_mutations_rejected;
      prop_prune_bit_identical;
    ]

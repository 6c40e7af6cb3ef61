(* Unit tests for Sekitei_core.Prop and Sekitei_core.Compile: interning,
   grounding, leveling, pruning, the initial state and goal rewriting. *)

module Prop = Sekitei_core.Prop
module Action = Sekitei_core.Action
module Compile = Sekitei_core.Compile
module Problem = Sekitei_core.Problem
module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Media = Sekitei_domains.Media
module G = Sekitei_network.Generators
module T = Sekitei_network.Topology
module I = Sekitei_util.Interval

(* ---------------- Prop interner ---------------- *)

let test_prop_roundtrip () =
  let t = Prop.create ~n_comps:3 ~n_nodes:4 ~levels_per_iface:[| 2; 5 |] in
  let all = List.init (Prop.count t) Fun.id in
  List.iter
    (fun id ->
      Alcotest.(check int) "id round-trip" id (Prop.id t (Prop.of_id t id)))
    all

let test_prop_count () =
  let t = Prop.create ~n_comps:3 ~n_nodes:4 ~levels_per_iface:[| 2; 5 |] in
  Alcotest.(check int) "count" ((3 * 4) + (4 * 2) + (4 * 5)) (Prop.count t)

let test_prop_distinct () =
  let t = Prop.create ~n_comps:2 ~n_nodes:3 ~levels_per_iface:[| 3 |] in
  let ids =
    List.concat
      [
        List.concat_map
          (fun c -> List.init 3 (fun n -> Prop.placed_id t ~comp:c ~node:n))
          [ 0; 1 ];
        List.concat_map
          (fun n -> List.init 3 (fun l -> Prop.avail_id t ~iface:0 ~node:n ~level:l))
          [ 0; 1; 2 ];
      ]
  in
  Alcotest.(check int) "all distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* ---------------- compile: shared fixtures ---------------- *)

let tiny_topo () = G.line_kinds [ T.Wan ]
let app () = Media.app ~server:0 ~client:1 ()

let compile_with level =
  let app = app () in
  Compile.compile (tiny_topo ()) app (Media.leveling level app)

let test_action_counts_grow () =
  let count level = Array.length (compile_with level).Problem.actions in
  let a = count Media.A and b = count Media.B and c = count Media.C in
  let d = count Media.D and e = count Media.E in
  Alcotest.(check bool) "A < B" true (a < b);
  Alcotest.(check bool) "B < C" true (b < c);
  Alcotest.(check bool) "C < D" true (c < d);
  Alcotest.(check bool) "D < E (link leveling multiplies)" true (d < e)

let test_greedy_single_level () =
  let pb = compile_with Media.A in
  Array.iter
    (fun levels ->
      Alcotest.(check int) "one level per iface" 1 (Array.length levels))
    pb.Problem.iface_levels

let test_initial_state () =
  let pb = compile_with Media.C in
  let server = Problem.comp_index pb "Server" in
  let m = Problem.iface_index pb "M" in
  Alcotest.(check bool) "server placed" true
    pb.Problem.init.(Prop.placed_id pb.Problem.props ~comp:server ~node:0);
  (* M degradable with capacity 200: every level is initially available
     on the server node, none on the client node. *)
  for level = 0 to Array.length pb.Problem.iface_levels.(m) - 1 do
    Alcotest.(check bool) "avail at server" true
      pb.Problem.init.(Prop.avail_id pb.Problem.props ~iface:m ~node:0 ~level);
    Alcotest.(check bool) "not at client" false
      pb.Problem.init.(Prop.avail_id pb.Problem.props ~iface:m ~node:1 ~level)
  done

let test_sources () =
  let pb = compile_with Media.C in
  match pb.Problem.sources with
  | [ s ] ->
      Alcotest.(check int) "server node" 0 s.Problem.src_node;
      Alcotest.(check (float 0.)) "capacity" 200. (I.hi s.Problem.src_interval)
  | _ -> Alcotest.fail "expected one source"

let test_iface_max () =
  let pb = compile_with Media.C in
  let check name v =
    Alcotest.(check (float 1e-6)) name v
      pb.Problem.iface_max.(Problem.iface_index pb name)
  in
  check "M" 200.;
  check "T" 140.;
  check "I" 60.;
  check "Z" 70.

let test_cross_dominance_pruning () =
  (* No cross action carries M at a level whose infimum exceeds the link
     capacity of 70: those would degrade to a lower level and are
     dominance-pruned (the paper's example). *)
  let pb = compile_with Media.C in
  let m = Problem.iface_index pb "M" in
  Array.iter
    (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Cross { iface; _ } when iface = m ->
          Array.iter
            (fun (_, ivl) ->
              Alcotest.(check bool)
                (Printf.sprintf "M cross input %s below capacity"
                   (I.to_string ivl))
                true
                (I.lo ivl < 70.))
            a.Action.in_levels
      | _ -> ())
    pb.Problem.actions

let test_place_actions_per_node () =
  let pb = compile_with Media.B in
  (* The anchored Server gets no place actions. *)
  Array.iter
    (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Place { comp; _ } ->
          Alcotest.(check bool) "never places Server" false
            (String.equal pb.Problem.comps.(comp).Model.comp_name "Server")
      | Action.Cross _ -> ())
    pb.Problem.actions

let test_merger_ratio_pruning () =
  (* Merger in-level combinations must satisfy T*3 == I*7, which keeps
     only the diagonal pairs. *)
  let pb = compile_with Media.C in
  let merger = Problem.comp_index pb "Merger" in
  let t_i = Problem.iface_index pb "T" and i_i = Problem.iface_index pb "I" in
  Array.iter
    (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Place { comp; _ } when comp = merger ->
          let level_of iface =
            Array.to_list a.Action.in_levels
            |> List.find_map (fun (i, ivl) -> if i = iface then Some ivl else None)
            |> Option.get
          in
          let t_ivl = level_of t_i and i_ivl = level_of i_i in
          (* proportional: T bounds = 7/3 of I bounds *)
          Alcotest.(check (float 1e-6)) "diagonal levels"
            (I.lo t_ivl *. 3.)
            (I.lo i_ivl *. 7.)
      | _ -> ())
    pb.Problem.actions

let test_add_closure_degradable () =
  (* A cross achieving level 1 of a degradable stream also supports level
     0 via its add-closure. *)
  let pb = compile_with Media.C in
  let m = Problem.iface_index pb "M" in
  let found = ref false in
  Array.iter
    (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Cross { iface; dst; _ } when iface = m ->
          Array.iter
            (fun pid ->
              match Prop.of_id pb.Problem.props pid with
              | Prop.Avail (_, _, l) when l >= 1 ->
                  found := true;
                  let lower =
                    Prop.avail_id pb.Problem.props ~iface:m ~node:dst ~level:(l - 1)
                  in
                  Alcotest.(check bool) "closure includes lower level" true
                    (Array.exists (fun q -> q = lower) a.Action.add_closure)
              | _ -> ())
            a.Action.add
      | _ -> ())
    pb.Problem.actions;
  ignore !found

let test_supports_consistency () =
  (* supports is the inverse of add_closure. *)
  let pb = compile_with Media.B in
  Array.iteri
    (fun pid actions ->
      List.iter
        (fun aid ->
          Alcotest.(check bool) "support really adds" true
            (Array.exists (fun q -> q = pid)
               pb.Problem.actions.(aid).Action.add_closure))
        actions)
    pb.Problem.supports

let test_costs_nonnegative () =
  let pb = compile_with Media.E in
  Array.iter
    (fun (a : Action.t) ->
      Alcotest.(check bool) "cost bound >= 0" true (a.Action.cost_lb >= 0.))
    pb.Problem.actions

let test_available_goal_rewritten () =
  let app = app () in
  let app =
    { app with Model.goals = [ Model.Available ("M", "ibw", 1, 90.) ] }
  in
  let pb = Compile.compile (tiny_topo ()) app (Media.leveling Media.C app) in
  Alcotest.(check int) "one goal prop" 1 (Array.length pb.Problem.goal_props);
  (* ... and a synthetic sink component exists, placeable only on node 1 *)
  let sink =
    Array.to_list pb.Problem.comps
    |> List.find_opt (fun (c : Model.component) ->
           String.length c.Model.comp_name >= 6
           && String.sub c.Model.comp_name 0 6 = "__goal")
  in
  Alcotest.(check bool) "sink exists" true (sink <> None);
  Array.iter
    (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Place { comp; node }
        when String.length pb.Problem.comps.(comp).Model.comp_name >= 6
             && String.sub pb.Problem.comps.(comp).Model.comp_name 0 6 = "__goal"
        ->
          Alcotest.(check int) "sink restricted to goal node" 1 node
      | _ -> ())
    pb.Problem.actions

let test_preplaced_with_requires_rejected () =
  let app = app () in
  let bad = { app with Model.pre_placed = [ ("Client", 0) ] } in
  Alcotest.(check bool) "compile error" true
    (try
       ignore (Compile.compile (tiny_topo ()) bad (Media.leveling Media.A bad));
       false
     with Compile.Compile_error _ -> true)

let test_checked_link_levels_scenario_e () =
  (* Scenario E actions carry checked link-bandwidth levels. *)
  let pb = compile_with Media.E in
  let has_checked =
    Array.exists
      (fun (a : Action.t) -> Array.length a.Action.checked_link > 0)
      pb.Problem.actions
  in
  Alcotest.(check bool) "checked link levels present" true has_checked;
  (* ... while scenario C actions carry none. *)
  let pb_c = compile_with Media.C in
  Array.iter
    (fun (a : Action.t) ->
      Alcotest.(check int) "no checked levels in C" 0
        (Array.length a.Action.checked_link))
    pb_c.Problem.actions

(* ---------------- closure order and fingerprint ---------------- *)

module Scenarios = Sekitei_harness.Scenarios
module Dsl = Sekitei_spec.Dsl

let scenario_problems ~prune =
  List.concat_map
    (fun (sc : Scenarios.t) ->
      List.map
        (fun level ->
          ( Printf.sprintf "%s-%s" sc.Scenarios.name (Media.scenario_name level),
            Compile.compile ~prune sc.Scenarios.topo sc.Scenarios.app
              (Media.leveling level sc.Scenarios.app) ))
        Media.all_scenarios)
    [ Scenarios.tiny (); Scenarios.small (); Scenarios.large () ]

let test_add_closure_increasing () =
  (* Propset uses every action's add_closure as a sorted merge operand
     without copying it, which relies on this invariant. *)
  List.iter
    (fun (name, (pb : Problem.t)) ->
      Array.iter
        (fun (a : Action.t) ->
          let c = a.Action.add_closure in
          for k = 1 to Array.length c - 1 do
            if c.(k - 1) >= c.(k) then
              Alcotest.failf "%s: %s add_closure not strictly increasing" name
                a.Action.label
          done)
        pb.Problem.actions)
    (scenario_problems ~prune:false)

(* A canonical dump of everything compilation decides: every field of
   every action (pruned and ground sets), supports, the initial state,
   [iface_max] and the pruned count, with floats in exact hex. *)
let problem_digest (pb : Problem.t) =
  let b = Buffer.create 65536 in
  let fl x = Printf.bprintf b "%h " x in
  let ints a =
    Array.iter (Printf.bprintf b "%d ") a;
    Buffer.add_string b "; "
  in
  let levels show a =
    Array.iter
      (fun (k, ivl) ->
        show k;
        fl (I.lo ivl);
        fl (I.hi ivl))
      a;
    Buffer.add_string b "; "
  in
  let action (a : Action.t) =
    Printf.bprintf b "%d " a.Action.act_id;
    (match a.Action.kind with
    | Action.Place { comp; node } -> Printf.bprintf b "place %d %d " comp node
    | Action.Cross { iface; link; src; dst } ->
        Printf.bprintf b "cross %d %d %d %d " iface link src dst);
    ints a.Action.pre;
    ints a.Action.add;
    ints a.Action.add_closure;
    fl a.Action.cost_lb;
    fl a.Action.cost_extra;
    levels (Printf.bprintf b "%d:") a.Action.in_levels;
    levels (Printf.bprintf b "%d:") a.Action.out_levels;
    levels (Printf.bprintf b "%s:") a.Action.checked_node;
    levels (Printf.bprintf b "%s:") a.Action.checked_link;
    Printf.bprintf b "%S\n" a.Action.label
  in
  Array.iter action pb.Problem.actions;
  Buffer.add_string b "supports\n";
  Array.iter (fun l -> ints (Array.of_list l)) pb.Problem.supports;
  Buffer.add_string b "\ninit\n";
  Array.iter
    (fun x -> Buffer.add_char b (if x then '1' else '0'))
    pb.Problem.init;
  Buffer.add_string b "\niface_max\n";
  Array.iter fl pb.Problem.iface_max;
  Printf.bprintf b "\npruned %d\nground\n" pb.Problem.pruned_actions;
  Array.iter action pb.Problem.ground_actions;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [topo] with every node's cpu replaced by [cpu node old] and every
   link's lbw by [lbw link old]. *)
let with_capacities ~cpu ~lbw topo =
  let topo =
    Array.fold_left
      (fun t (n : T.node) ->
        let id = n.T.node_id in
        T.with_node_resources t id
          (List.map
             (fun (r, v) -> (r, if r = "cpu" then cpu id v else v))
             n.T.node_resources))
      topo (T.nodes topo)
  in
  Array.fold_left
    (fun t (l : T.link) ->
      let id = l.T.link_id in
      T.with_link_resources t id
        (List.map
           (fun (r, v) -> (r, if r = "lbw" then lbw id v else v))
           l.T.link_resources))
    topo (T.links topo)

(* Networks whose sites differ in capacity, where the Table 2 networks
   give every node cpu 30 and every LAN and WAN link one bandwidth each:
   the Large network with node n's cpu at 25 + (n mod 7) and link l's
   lbw raised by (l mod 5), so some sites repeat and some do not, and
   the Small network with every node's cpu and every link's lbw
   distinct.  Scenario E levels the link bandwidth as well. *)
let varied_problems ~prune =
  List.concat_map
    (fun (name, (sc : Scenarios.t), cpu, lbw) ->
      let topo = with_capacities ~cpu ~lbw sc.Scenarios.topo in
      List.map
        (fun level ->
          ( Printf.sprintf "%s-%s" name (Media.scenario_name level),
            Compile.compile ~prune topo sc.Scenarios.app
              (Media.leveling level sc.Scenarios.app) ))
        [ Media.C; Media.E ])
    [
      ( "Large-varied",
        Scenarios.large (),
        (fun n _ -> 25. +. float_of_int (n mod 7)),
        fun l v -> v +. float_of_int (l mod 5) );
      ( "Small-distinct",
        Scenarios.small (),
        (fun n v -> v +. float_of_int n),
        fun l v -> v +. float_of_int l );
    ]

(* The shipped specs, read from the build tree (the test's dependencies)
   or, when the runner is started from the repository root, from there. *)
let spec_problems ~prune =
  List.map
    (fun name ->
      let file = Printf.sprintf "examples/specs/%s.spec" name in
      let path = if Sys.file_exists ("../" ^ file) then "../" ^ file else file in
      let doc =
        Dsl.parse_document (In_channel.with_open_text path In_channel.input_all)
      in
      ( name,
        Compile.compile ~prune (Option.get doc.Dsl.topo) doc.Dsl.app
          doc.Dsl.leveling ))
    [ "infeasible"; "video" ]

(* Pinned digests of the problems above.  Any change to what compilation
   emits changes one; a deliberate change refreshes them from the list
   the failure prints. *)
let fingerprints =
  [
    ("Tiny-A", "719b23c70f2f3705adf59b0f10efbd1a");
    ("Tiny-B", "ff47302d8dfffa06df355c358382b3c3");
    ("Tiny-C", "dddd6708fd5892077bb63d71bbe24fdf");
    ("Tiny-D", "a15911377639b0d156a55b2e9f9d5d7e");
    ("Tiny-E", "ce537713e9fec3f013d03b4d32aceb0f");
    ("Small-A", "0ffb84f74a405ffb2e938c54e4b3b6b0");
    ("Small-B", "ff4884178e05c42e8bcb1ec9ab22ae4a");
    ("Small-C", "da8fd401e92b336cf0d08424c27ba242");
    ("Small-D", "9a36681c3c540ed8d4b7616be2bda8de");
    ("Small-E", "5ca2f9f0694f3b627b5168fc91ebfabf");
    ("Large-A", "aaa3b62059763b75529b8ec754b20694");
    ("Large-B", "5bb299d6e3d0d03089e333c497f5657b");
    ("Large-C", "c6be9e6447aa1a290178e608ba4d2a8c");
    ("Large-D", "1ec80f0366adf962a4803f46cc9d137d");
    ("Large-E", "4264fbfae8c53c8a50639c37b8d4a449");
    ("Large-varied-C", "b4e5a3f419bebc634f3518347b2e52ea");
    ("Large-varied-E", "95101b8e19dcbf495f0b441045ea3be6");
    ("Small-distinct-C", "bde3c64d7fef19e489ce41c843268244");
    ("Small-distinct-E", "73ae6e29d580eeb10af47409caa606e4");
    ("infeasible", "c2291d0e1e5b924491825c878d02e3e4");
    ("video", "7d3f8e2663843db1d4c86ed19ba74628");
    ("Tiny-A/noprune", "719b23c70f2f3705adf59b0f10efbd1a");
    ("Tiny-B/noprune", "ff47302d8dfffa06df355c358382b3c3");
    ("Tiny-C/noprune", "dddd6708fd5892077bb63d71bbe24fdf");
    ("Tiny-D/noprune", "a15911377639b0d156a55b2e9f9d5d7e");
    ("Tiny-E/noprune", "ce537713e9fec3f013d03b4d32aceb0f");
    ("Small-A/noprune", "0ffb84f74a405ffb2e938c54e4b3b6b0");
    ("Small-B/noprune", "ff4884178e05c42e8bcb1ec9ab22ae4a");
    ("Small-C/noprune", "da8fd401e92b336cf0d08424c27ba242");
    ("Small-D/noprune", "9a36681c3c540ed8d4b7616be2bda8de");
    ("Small-E/noprune", "5ca2f9f0694f3b627b5168fc91ebfabf");
    ("Large-A/noprune", "aaa3b62059763b75529b8ec754b20694");
    ("Large-B/noprune", "5bb299d6e3d0d03089e333c497f5657b");
    ("Large-C/noprune", "c6be9e6447aa1a290178e608ba4d2a8c");
    ("Large-D/noprune", "1ec80f0366adf962a4803f46cc9d137d");
    ("Large-E/noprune", "4264fbfae8c53c8a50639c37b8d4a449");
    ("Large-varied-C/noprune", "b4e5a3f419bebc634f3518347b2e52ea");
    ("Large-varied-E/noprune", "95101b8e19dcbf495f0b441045ea3be6");
    ("Small-distinct-C/noprune", "bde3c64d7fef19e489ce41c843268244");
    ("Small-distinct-E/noprune", "73ae6e29d580eeb10af47409caa606e4");
    ("infeasible/noprune", "8613cfde5642e63d92ec17bdd130a883");
    ("video/noprune", "ec8b31ecdcdb638925b425fa20547812");
  ]

let test_compile_fingerprint () =
  let got =
    List.concat_map
      (fun prune ->
        let suffix = if prune then "" else "/noprune" in
        List.map
          (fun (name, pb) -> (name ^ suffix, problem_digest pb))
          (scenario_problems ~prune @ varied_problems ~prune
         @ spec_problems ~prune))
      [ true; false ]
  in
  let bad =
    List.filter
      (fun (name, d) -> List.assoc_opt name fingerprints <> Some d)
      got
  in
  if bad <> [] then
    Alcotest.failf "compiled problems changed:\n%s"
      (String.concat "\n"
         (List.map (fun (name, d) -> Printf.sprintf "    (%S, %S);" name d) got))

let suite =
  [
    ("prop round-trip", `Quick, test_prop_roundtrip);
    ("prop count", `Quick, test_prop_count);
    ("prop distinct", `Quick, test_prop_distinct);
    ("action counts grow with levels", `Quick, test_action_counts_grow);
    ("greedy single level", `Quick, test_greedy_single_level);
    ("initial state", `Quick, test_initial_state);
    ("sources", `Quick, test_sources);
    ("iface max fixpoint", `Quick, test_iface_max);
    ("cross dominance pruning", `Quick, test_cross_dominance_pruning);
    ("anchored components not placed", `Quick, test_place_actions_per_node);
    ("merger ratio pruning", `Quick, test_merger_ratio_pruning);
    ("degradable add closure", `Quick, test_add_closure_degradable);
    ("supports consistency", `Quick, test_supports_consistency);
    ("costs non-negative", `Quick, test_costs_nonnegative);
    ("available goal rewritten", `Quick, test_available_goal_rewritten);
    ("pre-placed with requires rejected", `Quick, test_preplaced_with_requires_rejected);
    ("checked link levels (E)", `Quick, test_checked_link_levels_scenario_e);
    ("add closure strictly increasing", `Quick, test_add_closure_increasing);
    ("compile fingerprint", `Quick, test_compile_fingerprint);
  ]

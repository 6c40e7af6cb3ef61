(* Unit tests for Sekitei_network: topology model, generators, routing,
   DOT export. *)

module T = Sekitei_network.Topology
module G = Sekitei_network.Generators
module R = Sekitei_network.Routing
module Dot = Sekitei_network.Dot
module Prng = Sekitei_util.Prng

(* ---------------- topology ---------------- *)

let small_topo () =
  T.make
    ~nodes:[ T.node 0 "a"; T.node ~cpu:60. 1 "b"; T.node 2 "c" ]
    ~links:[ T.link T.Lan 0 0 1; T.link ~bw:40. T.Wan 1 1 2 ]

let test_counts () =
  let t = small_topo () in
  Alcotest.(check int) "nodes" 3 (T.node_count t);
  Alcotest.(check int) "links" 2 (T.link_count t)

let test_resources () =
  let t = small_topo () in
  Alcotest.(check (float 0.)) "default cpu" 30. (T.node_resource t 0 "cpu");
  Alcotest.(check (float 0.)) "custom cpu" 60. (T.node_resource t 1 "cpu");
  Alcotest.(check (float 0.)) "lan default bw" 150. (T.link_resource t 0 "lbw");
  Alcotest.(check (float 0.)) "custom bw" 40. (T.link_resource t 1 "lbw");
  Alcotest.check_raises "missing resource" Not_found (fun () ->
      ignore (T.node_resource t 0 "gpu"))

let test_adjacency () =
  let t = small_topo () in
  Alcotest.(check (list (pair int int))) "middle node" [ (0, 0); (2, 1) ]
    (T.adjacent t 1);
  Alcotest.(check (list (pair int int))) "leaf" [ (1, 0) ] (T.adjacent t 0)

let test_peer () =
  let t = small_topo () in
  Alcotest.(check int) "peer of 0 on link 0" 1 (T.peer t 0 0);
  Alcotest.(check int) "peer of 1 on link 0" 0 (T.peer t 0 1)

let test_invalid_construction () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad node ids" true
    (raises (fun () ->
         ignore (T.make ~nodes:[ T.node 1 "x" ] ~links:[])));
  Alcotest.(check bool) "self loop" true
    (raises (fun () ->
         ignore
           (T.make ~nodes:[ T.node 0 "x" ] ~links:[ T.link T.Lan 0 0 0 ])));
  Alcotest.(check bool) "endpoint out of range" true
    (raises (fun () ->
         ignore
           (T.make ~nodes:[ T.node 0 "x" ] ~links:[ T.link T.Lan 0 0 7 ])))

let test_connectivity () =
  let t = small_topo () in
  Alcotest.(check bool) "connected" true (T.is_connected t);
  let disconnected =
    T.make ~nodes:[ T.node 0 "a"; T.node 1 "b" ] ~links:[]
  in
  Alcotest.(check bool) "disconnected" false (T.is_connected disconnected);
  let empty = T.make ~nodes:[] ~links:[] in
  Alcotest.(check bool) "empty is connected" true (T.is_connected empty)

let test_resource_names () =
  let t =
    T.make
      ~nodes:[ T.node ~resources:[ ("mem", 8.) ] 0 "a" ]
      ~links:[]
  in
  Alcotest.(check (list string)) "node resources" [ "cpu"; "mem" ]
    (List.sort compare (T.node_resource_names t))

(* ---------------- stable identities ---------------- *)

(* Every id-keyed accessor must raise Stale_link on a tombstoned id —
   never answer with a surviving neighbor's data. *)
let test_stale_link_accessors () =
  let t = Sekitei_network.Mutate.remove_link (small_topo ()) 0 in
  let stale f = Alcotest.check_raises "stale" (T.Stale_link 0) f in
  stale (fun () -> ignore (T.get_link t 0));
  stale (fun () -> ignore (T.link_resource t 0 "lbw"));
  stale (fun () -> ignore (T.peer t 0 0));
  stale (fun () -> ignore (T.with_link_resources t 0 []));
  (* dead links vanish from iteration and queries without renumbering *)
  Alcotest.(check int) "live count" 1 (T.link_count t);
  Alcotest.(check int) "id space keeps the slot" 2 (T.link_id_bound t);
  Alcotest.(check (list (pair int int))) "adjacency skips dead" [ (2, 1) ]
    (T.adjacent t 1);
  Alcotest.(check bool) "survivor keeps id" true (T.link_is_live t 1);
  Alcotest.(check (pair int int)) "survivor same ends" (1, 2)
    (T.get_link t 1).T.ends;
  (* out-of-range is a usage error, not staleness *)
  Alcotest.check_raises "out of range" (Invalid_argument "Topology.get_link")
    (fun () -> ignore (T.get_link t 5));
  Alcotest.(check bool) "out of range not live" false (T.link_is_live t 5);
  Alcotest.(check bool) "negative not live" false (T.link_is_live t (-1))

let test_node_liveness () =
  let t = small_topo () in
  Alcotest.(check bool) "fresh nodes alive" true
    (List.for_all (T.node_alive t) [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "no failures" [] (T.failed_nodes t);
  Alcotest.(check (list int)) "no dead links" [] (T.dead_links t);
  let t' = Sekitei_network.Mutate.fail_node t 1 in
  Alcotest.(check bool) "failed node dead" false (T.node_alive t' 1);
  Alcotest.(check (list int)) "failure recorded" [ 1 ] (T.failed_nodes t');
  Alcotest.(check (list int)) "incident links tombstoned" [ 0; 1 ]
    (T.dead_links t');
  Alcotest.(check int) "node count unchanged" 3 (T.node_count t');
  Alcotest.check_raises "node_alive out of range"
    (Invalid_argument "Topology.node_alive") (fun () ->
      ignore (T.node_alive t' 9))

(* ---------------- generators ---------------- *)

let test_line () =
  let t = G.line 5 in
  Alcotest.(check int) "nodes" 5 (T.node_count t);
  Alcotest.(check int) "links" 4 (T.link_count t);
  Alcotest.(check bool) "connected" true (T.is_connected t)

let test_line_kinds () =
  let t = G.line_kinds [ T.Lan; T.Wan; T.Lan ] in
  Alcotest.(check int) "nodes" 4 (T.node_count t);
  Alcotest.(check (float 0.)) "wan bw" 70. (T.link_resource t 1 "lbw");
  Alcotest.(check (float 0.)) "lan bw" 150. (T.link_resource t 0 "lbw")

let test_ring () =
  let t = G.ring 6 in
  Alcotest.(check int) "links" 6 (T.link_count t);
  Alcotest.(check bool) "connected" true (T.is_connected t);
  Array.iter
    (fun n -> Alcotest.(check int) "degree 2" 2 (List.length (T.adjacent t n.T.node_id)))
    (T.nodes t)

let test_star () =
  let t = G.star 5 in
  Alcotest.(check int) "nodes" 6 (T.node_count t);
  Alcotest.(check int) "hub degree" 5 (List.length (T.adjacent t 0))

let test_grid () =
  let t = G.grid 3 4 in
  Alcotest.(check int) "nodes" 12 (T.node_count t);
  Alcotest.(check int) "links" ((2 * 4) + (3 * 3)) (T.link_count t);
  Alcotest.(check bool) "connected" true (T.is_connected t)

let test_transit_stub_shape () =
  let rng = Prng.create ~seed:123L in
  let t = G.transit_stub ~rng ~transit:3 ~stubs_per_transit:3 ~stub_size:10 () in
  Alcotest.(check int) "93 nodes" 93 (T.node_count t);
  Alcotest.(check bool) "connected" true (T.is_connected t);
  (* every stub reaches its transit via a WAN uplink: count WAN links >=
     transit ring + uplinks *)
  let wan =
    Array.fold_left
      (fun n (l : T.link) -> if l.T.kind = T.Wan then n + 1 else n)
      0 (T.links t)
  in
  Alcotest.(check bool) "enough WAN links" true (wan >= 3 + 9)

let test_transit_stub_deterministic () =
  let gen seed =
    let rng = Prng.create ~seed in
    G.transit_stub ~rng ~transit:2 ~stubs_per_transit:2 ~stub_size:5 ()
  in
  let a = gen 55L and b = gen 55L in
  Alcotest.(check int) "same link count" (T.link_count a) (T.link_count b);
  Array.iteri
    (fun i (l : T.link) ->
      Alcotest.(check (pair int int)) "same ends" l.T.ends (T.get_link b i).T.ends)
    (T.links a)

let test_transit_stub_resources () =
  let rng = Prng.create ~seed:9L in
  let t = G.transit_stub ~rng ~transit:2 ~stubs_per_transit:1 ~stub_size:4 () in
  Array.iter
    (fun (l : T.link) ->
      let bw = T.link_resource t l.T.link_id "lbw" in
      match l.T.kind with
      | T.Lan -> Alcotest.(check (float 0.)) "lan 150" 150. bw
      | T.Wan -> Alcotest.(check (float 0.)) "wan 70" 70. bw)
    (T.links t)

(* ---------------- routing ---------------- *)

let routing_topo () =
  (* 0-1-2-3 path plus shortcut 0-4-3 with narrow links *)
  T.make
    ~nodes:(List.init 5 (fun i -> T.node i (Printf.sprintf "n%d" i)))
    ~links:
      [
        T.link ~bw:100. T.Lan 0 0 1;
        T.link ~bw:100. T.Lan 1 1 2;
        T.link ~bw:100. T.Lan 2 2 3;
        T.link ~bw:20. T.Lan 3 0 4;
        T.link ~bw:20. T.Lan 4 4 3;
      ]

let test_shortest_path () =
  let t = routing_topo () in
  match R.shortest_path t 0 3 with
  | Some p ->
      Alcotest.(check (list int)) "2 hops via shortcut" [ 0; 4; 3 ] p.R.hops
  | None -> Alcotest.fail "no path"

let test_shortest_path_self () =
  let t = routing_topo () in
  match R.shortest_path t 2 2 with
  | Some p ->
      Alcotest.(check (list int)) "self" [ 2 ] p.R.hops;
      Alcotest.(check int) "no links" 0 (List.length p.R.path_links)
  | None -> Alcotest.fail "no self path"

let test_shortest_unreachable () =
  let t = T.make ~nodes:[ T.node 0 "a"; T.node 1 "b" ] ~links:[] in
  Alcotest.(check bool) "unreachable" true (R.shortest_path t 0 1 = None)

let test_hop_distance () =
  let t = routing_topo () in
  Alcotest.(check (option int)) "distance" (Some 2) (R.hop_distance t 0 3);
  Alcotest.(check (option int)) "adjacent" (Some 1) (R.hop_distance t 0 1);
  Alcotest.(check (option int)) "self" (Some 0) (R.hop_distance t 1 1)

let test_path_links_consistent () =
  let t = routing_topo () in
  match R.shortest_path t 1 4 with
  | Some p ->
      Alcotest.(check int) "links = hops - 1"
        (List.length p.R.hops - 1)
        (List.length p.R.path_links)
  | None -> Alcotest.fail "no path"

(* ---------------- DOT ---------------- *)

let test_dot_output () =
  let t = small_topo () in
  let dot = Dot.to_dot ~highlight:[ 0 ] t in
  Alcotest.(check bool) "graph keyword" true
    (Sekitei_spec.Str_split.split_once dot "graph topology" <> None);
  Alcotest.(check bool) "edge present" true
    (Sekitei_spec.Str_split.split_once dot "0 -- 1" <> None);
  Alcotest.(check bool) "wan styled" true
    (Sekitei_spec.Str_split.split_once dot "style=bold" <> None);
  Alcotest.(check bool) "highlight" true
    (Sekitei_spec.Str_split.split_once dot "fillcolor=lightblue" <> None)

let suite =
  [
    ("counts", `Quick, test_counts);
    ("resources", `Quick, test_resources);
    ("adjacency", `Quick, test_adjacency);
    ("peer", `Quick, test_peer);
    ("invalid construction", `Quick, test_invalid_construction);
    ("connectivity", `Quick, test_connectivity);
    ("resource names", `Quick, test_resource_names);
    ("stale link accessors", `Quick, test_stale_link_accessors);
    ("node liveness", `Quick, test_node_liveness);
    ("gen line", `Quick, test_line);
    ("gen line kinds", `Quick, test_line_kinds);
    ("gen ring", `Quick, test_ring);
    ("gen star", `Quick, test_star);
    ("gen grid", `Quick, test_grid);
    ("gen transit-stub shape", `Quick, test_transit_stub_shape);
    ("gen transit-stub deterministic", `Quick, test_transit_stub_deterministic);
    ("gen transit-stub resources", `Quick, test_transit_stub_resources);
    ("shortest path", `Quick, test_shortest_path);
    ("shortest path self", `Quick, test_shortest_path_self);
    ("shortest unreachable", `Quick, test_shortest_unreachable);
    ("hop distance", `Quick, test_hop_distance);
    ("path links consistent", `Quick, test_path_links_consistent);
    ("dot output", `Quick, test_dot_output);
  ]

module Topology = Sekitei_network.Topology
module Generators = Sekitei_network.Generators
module Routing = Sekitei_network.Routing
module Model = Sekitei_spec.Model
module Media = Sekitei_domains.Media
module Prng = Sekitei_util.Prng

type t = {
  name : string;
  topo : Topology.t;
  server : Topology.node_id;
  client : Topology.node_id;
  app : Model.app;
}

let make name topo server client =
  { name; topo; server; client; app = Media.app ~server ~client () }

let tiny () = make "Tiny" (Generators.line_kinds [ Topology.Wan ]) 0 1

let small () =
  (* Path n4(server) -LAN- n3 -WAN- n2 -LAN- n1 -LAN- n0(client), plus the
     off-path node n5 hanging off n1; all ids 0..5, links in id order. *)
  let topo =
    Topology.(
      make
        ~nodes:(List.init 6 (fun i -> node i (Printf.sprintf "n%d" i)))
        ~links:
          [
            link Lan 0 0 1;
            link Lan 1 1 2;
            link Wan 2 2 3;
            link Lan 3 3 4;
            link Lan 4 1 5;
          ])
  in
  make "Small" topo 4 0

let default_large_seed = 0xC0FFEEL

(* Pick the server and client in two sibling stub domains of transit router
   0, each one LAN hop inside its stub, so that the shortest path is
   LAN, WAN, WAN, LAN — the structure behind Table 2's Large rows. *)
let large ?(seed = default_large_seed) () =
  let rng = Prng.create ~seed in
  let topo =
    Generators.transit_stub ~rng ~transit:3 ~stubs_per_transit:3 ~stub_size:10 ()
  in
  let gateways =
    List.filter_map
      (fun (peer, lid) ->
        match (Topology.get_link topo lid).Topology.kind with
        | Topology.Wan when peer >= 3 -> Some peer
        | _ -> None)
      (Topology.adjacent topo 0)
    |> List.sort compare
  in
  let stub_of node = (node - 3) / 10 in
  let lan_neighbour gw =
    let candidates =
      List.filter_map
        (fun (peer, lid) ->
          match (Topology.get_link topo lid).Topology.kind with
          | Topology.Lan when stub_of peer = stub_of gw -> Some peer
          | _ -> None)
        (Topology.adjacent topo gw)
    in
    match candidates with c :: _ -> Some c | [] -> None
  in
  let pick () =
    let rec pairs = function
      | g1 :: rest ->
          let found =
            List.find_map
              (fun g2 ->
                if stub_of g1 = stub_of g2 then None
                else
                  match (lan_neighbour g1, lan_neighbour g2) with
                  | Some s, Some c
                    when Routing.hop_distance topo s c = Some 4 ->
                      Some (s, c)
                  | _ -> None)
              rest
          in
          (match found with Some x -> Some x | None -> pairs rest)
      | [] -> None
    in
    pairs gateways
  in
  match pick () with
  | Some (server, client) -> make "Large" topo server client
  | None ->
      invalid_arg
        "Scenarios.large: seed does not produce the required path structure"

let all () = [ tiny (); small (); large () ]

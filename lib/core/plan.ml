module Topology = Sekitei_network.Topology
module Model = Sekitei_spec.Model

type t = { steps : Action.t list; cost_lb : float; metrics : Replay.metrics }

let length t = List.length t.steps

let step_to_string (pb : Problem.t) (a : Action.t) =
  let node_name n = (Topology.get_node pb.topo n).Topology.node_name in
  match a.Action.kind with
  | Action.Place { comp; node } ->
      Printf.sprintf "place %s on %s" pb.comps.(comp).Model.comp_name
        (node_name node)
  | Action.Cross { iface; src; dst; _ } ->
      Printf.sprintf "cross with %s stream from %s to %s"
        pb.ifaces.(iface).Model.iface_name (node_name src) (node_name dst)

let to_string pb t =
  String.concat ",\n" (List.map (step_to_string pb) t.steps) ^ "."

let labels t = List.map (fun (a : Action.t) -> a.Action.label) t.steps

let placements (pb : Problem.t) t =
  List.filter_map
    (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Place { comp; node } ->
          Some (pb.comps.(comp).Model.comp_name, node)
      | Action.Cross _ -> None)
    t.steps

let crossings (pb : Problem.t) t =
  List.filter_map
    (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Cross { iface; src; dst; _ } ->
          Some (pb.ifaces.(iface).Model.iface_name, src, dst)
      | Action.Place _ -> None)
    t.steps

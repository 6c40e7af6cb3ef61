module Expr = Sekitei_expr.Expr

type tag = Degradable | Upgradable | Neither

type property = { prop_name : string; prop_default : float; prop_tag : tag }

type iface = {
  iface_name : string;
  properties : property list;
  cross_transforms : (string * Expr.t) list;
  cross_consumes : (string * Expr.t) list;
  cross_conditions : Expr.cond list;
  cross_cost : Expr.t;
}

type component = {
  comp_name : string;
  requires : string list;
  provides : string list;
  conditions : Expr.cond list;
  effects : (string * string * Expr.t) list;
  consumes : (string * Expr.t) list;
  place_cost : Expr.t;
  placeable : bool;
}

type goal =
  | Placed of string * Sekitei_network.Topology.node_id
  | Available of string * string * Sekitei_network.Topology.node_id * float

type app = {
  interfaces : iface list;
  components : component list;
  pre_placed : (string * Sekitei_network.Topology.node_id) list;
  goals : goal list;
}

let property ?(default = 0.) ?(tag = Degradable) name =
  { prop_name = name; prop_default = default; prop_tag = tag }

let capacity_capped p =
  Expr.(min_ (var p) (var "link.lbw"))

let iface ?cross_transforms ?cross_consumes ?(cross_conditions = [])
    ?cross_cost ~properties name =
  let primary =
    match properties with
    | p :: _ -> p.prop_name
    | [] -> invalid_arg "Model.iface: at least one property required"
  in
  let cross_transforms =
    match cross_transforms with
    | Some ts -> ts
    | None -> [ (primary, capacity_capped primary) ]
  in
  let cross_consumes =
    match cross_consumes with
    | Some cs -> cs
    | None -> [ ("lbw", capacity_capped primary) ]
  in
  let cross_cost =
    match cross_cost with
    | Some c -> c
    | None -> Expr.(Add (Const 1., Div (Var primary, Const 10.)))
  in
  { iface_name = name; properties; cross_transforms; cross_consumes;
    cross_conditions; cross_cost }

let component ?(requires = []) ?(provides = []) ?(conditions = [])
    ?(effects = []) ?(consumes = []) ?(place_cost = Expr.Const 1.)
    ?(placeable = true) name =
  { comp_name = name; requires; provides; conditions; effects; consumes;
    place_cost; placeable }

let find_iface app name =
  List.find_opt (fun i -> String.equal i.iface_name name) app.interfaces

let find_component app name =
  List.find_opt (fun c -> String.equal c.comp_name name) app.components

let find_property iface name =
  List.find_opt (fun p -> String.equal p.prop_name name) iface.properties

let qualified iface prop = iface ^ "." ^ prop

let split_var v =
  match String.index_opt v '.' with
  | Some dot ->
      (String.sub v 0 dot, String.sub v (dot + 1) (String.length v - dot - 1))
  | None -> ("", v)

let primary_property iface =
  match iface.properties with
  | p :: _ -> p
  | [] -> assert false (* forbidden by the constructor *)

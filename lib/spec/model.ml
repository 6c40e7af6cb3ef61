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

let pp_tag fmt = function
  | Degradable -> Format.pp_print_string fmt "degradable"
  | Upgradable -> Format.pp_print_string fmt "upgradable"
  | Neither -> Format.pp_print_string fmt "neither"

let pp_iface fmt i =
  Format.fprintf fmt "@[<v 2>interface %s {" i.iface_name;
  List.iter
    (fun p ->
      Format.fprintf fmt "@,property %s (default %g, %a);" p.prop_name
        p.prop_default pp_tag p.prop_tag)
    i.properties;
  List.iter
    (fun (p, e) -> Format.fprintf fmt "@,cross %s := %a;" p Expr.pp e)
    i.cross_transforms;
  List.iter
    (fun (r, e) -> Format.fprintf fmt "@,consume link.%s -= %a;" r Expr.pp e)
    i.cross_consumes;
  List.iter
    (fun c -> Format.fprintf fmt "@,condition %a;" Expr.pp_cond c)
    i.cross_conditions;
  Format.fprintf fmt "@,cost %a;" Expr.pp i.cross_cost;
  Format.fprintf fmt "@]@,}"

let pp_component fmt c =
  Format.fprintf fmt "@[<v 2>component %s {" c.comp_name;
  if c.requires <> [] then
    Format.fprintf fmt "@,requires %s;" (String.concat ", " c.requires);
  if c.provides <> [] then
    Format.fprintf fmt "@,provides %s;" (String.concat ", " c.provides);
  List.iter
    (fun cond -> Format.fprintf fmt "@,condition %a;" Expr.pp_cond cond)
    c.conditions;
  List.iter
    (fun (i, p, e) ->
      Format.fprintf fmt "@,effect %s := %a;" (qualified i p) Expr.pp e)
    c.effects;
  List.iter
    (fun (r, e) -> Format.fprintf fmt "@,consume node.%s -= %a;" r Expr.pp e)
    c.consumes;
  Format.fprintf fmt "@,cost %a;" Expr.pp c.place_cost;
  if not c.placeable then Format.fprintf fmt "@,anchored;";
  Format.fprintf fmt "@]@,}"

let pp_goal fmt = function
  | Placed (c, n) -> Format.fprintf fmt "placed(%s, n%d)" c n
  | Available (i, p, n, v) ->
      Format.fprintf fmt "%s.%s >= %g @@ n%d" i p v n

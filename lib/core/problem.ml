module I = Sekitei_util.Interval
module Topology = Sekitei_network.Topology
module Model = Sekitei_spec.Model

type source = {
  src_iface : int;
  src_node : int;
  src_interval : I.t;
  src_secondary : (string * float) list;
}

type t = {
  topo : Topology.t;
  app : Model.app;
  ifaces : Model.iface array;
  comps : Model.component array;
  iface_levels : I.t array array;
  iface_tags : Model.tag array;
  props : Prop.interner;
  actions : Action.t array;
  supports : int list array;
  init : bool array;
  init_consumed : (int * string * float) list;
  sources : source list;
  goal_props : int array;
  comp_allowed_node : int option array;
  iface_max : float array;
  pruned_actions : int;
  ground_actions : Action.t array;
}

let index_of name proj arr what =
  let rec go i =
    if i >= Array.length arr then
      invalid_arg (Printf.sprintf "Problem: unknown %s %s" what name)
    else if String.equal (proj arr.(i)) name then i
    else go (i + 1)
  in
  go 0

let iface_index t name =
  index_of name (fun (i : Model.iface) -> i.iface_name) t.ifaces "interface"

let comp_index t name =
  index_of name (fun (c : Model.component) -> c.comp_name) t.comps "component"

let primary t i = (Model.primary_property t.ifaces.(i)).prop_name

let node_cap t node r =
  try Topology.node_resource t.topo node r with Not_found -> 0.

let link_cap t link r =
  try Topology.link_resource t.topo link r with Not_found -> 0.

let action t id = t.actions.(id)

(* Element-wise, after a physical test: a recompile shares the arrays of
   every action it reuses, so most comparisons stop at [==]. *)
let same_ints (a : int array) (b : int array) =
  a == b
  || Array.length a = Array.length b
     &&
     let rec from i = i = Array.length a || (a.(i) = b.(i) && from (i + 1)) in
     from 0

type leveled_diff = Same | Fewer of int array | Changed

let same_kind (x : Action.kind) (y : Action.kind) =
  match (x, y) with
  | Action.Place a, Action.Place b -> a.comp = b.comp && a.node = b.node
  | Action.Cross a, Action.Cross b ->
      a.iface = b.iface && a.link = b.link && a.src = b.src && a.dst = b.dst
  | _ -> false

let leveled_equal (x : Action.t) (y : Action.t) =
  same_kind x.Action.kind y.Action.kind
  && Float.equal x.Action.cost_lb y.Action.cost_lb
  && same_ints x.Action.pre y.Action.pre
  && same_ints x.Action.add_closure y.Action.add_closure

(* Greedy embedding: each new action is matched with the first unmatched
   old action equal to it, which finds an embedding exactly when one
   exists.  A subsequence as long as the old array is the identity, so
   that case is decided pairwise without building the map. *)
let leveled_diff ~old nw =
  let n_old = Array.length old.actions and n = Array.length nw.actions in
  if
    n > n_old
    || old.init <> nw.init
    || not (same_ints old.goal_props nw.goal_props)
  then Changed
  else if n = n_old then
    if Array.for_all2 leveled_equal old.actions nw.actions then Same
    else Changed
  else begin
    let map = Array.make n_old (-1) in
    let j = ref 0 in
    Array.iteri
      (fun i a ->
        if !j < n && leveled_equal a nw.actions.(!j) then begin
          map.(i) <- !j;
          incr j
        end)
      old.actions;
    if !j = n then Fewer map else Changed
  end

let prop_label t id =
  match Prop.of_id t.props id with
  | Prop.Placed (c, n) ->
      Printf.sprintf "placed(%s,%s)" t.comps.(c).comp_name
        (Topology.get_node t.topo n).node_name
  | Prop.Avail (i, n, l) ->
      Printf.sprintf "avail(%s,%s,L%d=%s)" t.ifaces.(i).iface_name
        (Topology.get_node t.topo n).node_name l
        (I.to_string t.iface_levels.(i).(l))

let pp_prop t fmt id = Format.pp_print_string fmt (prop_label t id)

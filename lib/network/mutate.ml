open Topology

(* Grounding reads an unleveled resource as a point interval; a NaN or
   infinite capacity would reach it as an empty one, and a negative one
   as a pool already overdrawn.  Zero stays valid: [fail_node] zeroes. *)
let require_finite fn res v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "%s: %s must be finite, got %g" fn res v);
  if v < 0. then
    invalid_arg (Printf.sprintf "%s: %s must be non-negative, got %g" fn res v)

let set_link_resource t link res v =
  if link < 0 || link >= link_id_bound t then
    invalid_arg (Printf.sprintf "Mutate.set_link_resource: unknown link %d" link);
  require_finite "Mutate.set_link_resource" res v;
  let l = get_link t link in
  with_link_resources t link ((res, v) :: List.remove_assoc res l.link_resources)

let set_node_resource t node res v =
  if node < 0 || node >= node_count t then
    invalid_arg (Printf.sprintf "Mutate.set_node_resource: unknown node %d" node);
  require_finite "Mutate.set_node_resource" res v;
  let n = get_node t node in
  with_node_resources t node ((res, v) :: List.remove_assoc res n.node_resources)

let remove_link t link = Topology.remove_link t link

let fail_node t node =
  if node < 0 || node >= node_count t then
    invalid_arg (Printf.sprintf "Mutate.fail_node: unknown node %d" node);
  let n = get_node t node in
  let zeroed = List.map (fun (r, _) -> (r, 0.)) n.node_resources in
  mark_node_failed (with_node_resources t node zeroed) node

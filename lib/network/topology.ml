type node_id = int
type link_id = int
type link_kind = Lan | Wan

exception Stale_link of link_id

let () =
  Printexc.register_printer (function
    | Stale_link l -> Some (Printf.sprintf "Sekitei_network.Topology.Stale_link(%d)" l)
    | _ -> None)

type node = {
  node_id : node_id;
  node_name : string;
  node_resources : (string * float) list;
}

type link = {
  link_id : link_id;
  ends : node_id * node_id;
  kind : link_kind;
  link_resources : (string * float) list;
}

(* Link ids are persistent: [link_arr] is indexed by id and keeps a slot
   for every link the topology has ever had; [link_live] is the tombstone
   set.  The iteration/array hot paths (grounding, replay metrics) never
   see dead links — they run over [live_links], a dense view rebuilt once
   per (persistent) mutation — while id-keyed lookups stay O(1) through
   [link_arr] plus one liveness bit. *)
type t = {
  node_arr : node array;
  node_live : bool array;  (** false once the node has failed *)
  link_arr : link array;  (** indexed by stable id; includes tombstones *)
  link_live : bool array;
  live_links : link array;  (** dense view: live links, ascending id *)
  adj : (node_id * link_id) list array;  (** live links only *)
}

let default_cpu = 30.
let default_lan_bw = 150.
let default_wan_bw = 70.

let node ?(cpu = default_cpu) ?(resources = []) id name =
  {
    node_id = id;
    node_name = name;
    node_resources = ("cpu", cpu) :: resources;
  }

let link ?bw ?(resources = []) kind id a b =
  let bw =
    match bw with
    | Some bw -> bw
    | None -> ( match kind with Lan -> default_lan_bw | Wan -> default_wan_bw)
  in
  { link_id = id; ends = (a, b); kind; link_resources = ("lbw", bw) :: resources }

(* Recompute the dense live view and adjacency from the id-indexed
   arrays; every mutation funnels through here. *)
let of_parts ~node_arr ~node_live ~link_arr ~link_live =
  let n = Array.length node_arr in
  let live_links =
    Array.to_list link_arr
    |> List.filter (fun l -> link_live.(l.link_id))
    |> Array.of_list
  in
  let adj = Array.make (max n 1) [] in
  Array.iter
    (fun l ->
      let a, b = l.ends in
      adj.(a) <- (b, l.link_id) :: adj.(a);
      adj.(b) <- (a, l.link_id) :: adj.(b))
    live_links;
  (* Deterministic neighbour order: by peer id then link id. *)
  Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
  { node_arr; node_live; link_arr; link_live; live_links; adj }

let make ~nodes ~links =
  let node_arr = Array.of_list nodes in
  let n = Array.length node_arr in
  Array.iteri
    (fun i nd ->
      if nd.node_id <> i then
        invalid_arg
          (Printf.sprintf "Topology.make: node ids must be 0..n-1 (got %d at %d)"
             nd.node_id i))
    node_arr;
  let link_arr = Array.of_list links in
  Array.iteri
    (fun i l ->
      let a, b = l.ends in
      if l.link_id <> i then
        invalid_arg "Topology.make: link ids must be 0..m-1 in order";
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Topology.make: link endpoint out of range";
      if a = b then invalid_arg "Topology.make: self-loop")
    link_arr;
  of_parts ~node_arr
    ~node_live:(Array.make n true)
    ~link_arr
    ~link_live:(Array.make (Array.length link_arr) true)

let node_count t = Array.length t.node_arr
let link_count t = Array.length t.live_links
let link_id_bound t = Array.length t.link_arr
let nodes t = t.node_arr
let links t = t.live_links

let get_node t id =
  if id < 0 || id >= node_count t then invalid_arg "Topology.get_node"
  else t.node_arr.(id)

let link_is_live t id =
  id >= 0 && id < Array.length t.link_arr && t.link_live.(id)

let dead_links t =
  let acc = ref [] in
  for id = Array.length t.link_arr - 1 downto 0 do
    if not t.link_live.(id) then acc := id :: !acc
  done;
  !acc

let get_link t id =
  if id < 0 || id >= Array.length t.link_arr then invalid_arg "Topology.get_link"
  else if not t.link_live.(id) then raise (Stale_link id)
  else t.link_arr.(id)

let node_alive t id =
  if id < 0 || id >= node_count t then invalid_arg "Topology.node_alive"
  else t.node_live.(id)

let failed_nodes t =
  let acc = ref [] in
  for id = node_count t - 1 downto 0 do
    if not t.node_live.(id) then acc := id :: !acc
  done;
  !acc

let adjacent t id =
  if id < 0 || id >= node_count t then invalid_arg "Topology.adjacent"
  else t.adj.(id)

let node_resource t id name = List.assoc name (get_node t id).node_resources
let link_resource t id name = List.assoc name (get_link t id).link_resources

let peer t lid n =
  let l = get_link t lid in
  let a, b = l.ends in
  if n = a then b
  else if n = b then a
  else invalid_arg "Topology.peer: node not an endpoint"

let is_connected t =
  let n = node_count t in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let rec dfs i =
      if not seen.(i) then begin
        seen.(i) <- true;
        List.iter (fun (peer, _) -> dfs peer) t.adj.(i)
      end
    in
    dfs 0;
    Array.for_all Fun.id seen
  end

(* ------------------------------------------------------------------ *)
(* Identity-stable mutation primitives                                  *)
(* ------------------------------------------------------------------ *)

let with_node_resources t id resources =
  let _ = get_node t id in
  let node_arr = Array.copy t.node_arr in
  node_arr.(id) <- { node_arr.(id) with node_resources = resources };
  of_parts ~node_arr ~node_live:t.node_live ~link_arr:t.link_arr
    ~link_live:t.link_live

let with_link_resources t id resources =
  let _ = get_link t id in
  let link_arr = Array.copy t.link_arr in
  link_arr.(id) <- { link_arr.(id) with link_resources = resources };
  of_parts ~node_arr:t.node_arr ~node_live:t.node_live ~link_arr
    ~link_live:t.link_live

let remove_link t id =
  let _ = get_link t id in
  let link_live = Array.copy t.link_live in
  link_live.(id) <- false;
  of_parts ~node_arr:t.node_arr ~node_live:t.node_live ~link_arr:t.link_arr
    ~link_live

let mark_node_failed t id =
  let _ = get_node t id in
  let node_live = Array.copy t.node_live in
  node_live.(id) <- false;
  let link_live = Array.copy t.link_live in
  Array.iteri
    (fun lid l ->
      if link_live.(lid) then begin
        let a, b = l.ends in
        if a = id || b = id then link_live.(lid) <- false
      end)
    t.link_arr;
  of_parts ~node_arr:t.node_arr ~node_live ~link_arr:t.link_arr ~link_live

(* ------------------------------------------------------------------ *)
(* Resource names                                                       *)
(* ------------------------------------------------------------------ *)

let collect_names proj arr =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  Array.iter
    (fun x ->
      List.iter
        (fun (name, _) ->
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.add seen name ();
            acc := name :: !acc
          end)
        (proj x))
    arr;
  List.rev !acc

let node_resource_names t = collect_names (fun n -> n.node_resources) t.node_arr
let link_resource_names t = collect_names (fun l -> l.link_resources) t.live_links

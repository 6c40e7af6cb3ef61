open Topology

type path = { hops : node_id list; path_links : link_id list }

let reconstruct prev src dst =
  let rec go acc_nodes acc_links node =
    if node = src then { hops = node :: acc_nodes; path_links = acc_links }
    else
      match prev.(node) with
      | Some (p, lid) -> go (node :: acc_nodes) (lid :: acc_links) p
      | None -> assert false
  in
  go [] [] dst

let shortest_path t src dst =
  let n = node_count t in
  if src < 0 || src >= n || dst < 0 || dst >= n then None
  else begin
    let prev = Array.make n None in
    let seen = Array.make n false in
    seen.(src) <- true;
    let q = Queue.create () in
    Queue.add src q;
    let found = ref (src = dst) in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun (v, lid) ->
          if not seen.(v) then begin
            seen.(v) <- true;
            prev.(v) <- Some (u, lid);
            if v = dst then found := true else Queue.add v q
          end)
        (adjacent t u)
    done;
    if !found then Some (reconstruct prev src dst) else None
  end

let hop_distance t src dst =
  Option.map (fun p -> List.length p.path_links) (shortest_path t src dst)

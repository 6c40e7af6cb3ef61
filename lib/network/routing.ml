open Topology
module Heap = Sekitei_util.Heap

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

let dijkstra t ~weight src dst =
  let n = node_count t in
  if src < 0 || src >= n || dst < 0 || dst >= n then None
  else begin
    let dist = Array.make n Float.infinity in
    let prev = Array.make n None in
    let done_ = Array.make n false in
    let heap = Heap.create () in
    dist.(src) <- 0.;
    Heap.add heap ~prio:0. src;
    let rec loop () =
      if not (Heap.is_empty heap) then begin
        let d = Heap.top_prio heap in
        let u = Heap.pop_value heap in
        if done_.(u) then loop ()
        else begin
          done_.(u) <- true;
          if u <> dst then begin
            List.iter
              (fun (v, lid) ->
                let w = weight (get_link t lid) in
                if w < 0. then invalid_arg "Routing.dijkstra: negative weight";
                let nd = d +. w in
                if nd < dist.(v) then begin
                  dist.(v) <- nd;
                  prev.(v) <- Some (u, lid);
                  Heap.add heap ~prio:nd v
                end)
              (adjacent t u);
            loop ()
          end
        end
      end
    in
    loop ();
    if Float.is_finite dist.(dst) then Some (reconstruct prev src dst) else None
  end

let widest_path t src dst =
  let n = node_count t in
  if src < 0 || src >= n || dst < 0 || dst >= n then None
  else begin
    let width = Array.make n Float.neg_infinity in
    let prev = Array.make n None in
    let done_ = Array.make n false in
    let heap = Heap.create () in
    width.(src) <- Float.infinity;
    (* Max-heap via negated priority. *)
    Heap.add heap ~prio:Float.neg_infinity src;
    while not (Heap.is_empty heap) do
      let u = Heap.pop_value heap in
      if not done_.(u) then begin
        done_.(u) <- true;
        List.iter
          (fun (v, lid) ->
            let bw = try link_resource t lid "lbw" with Not_found -> 0. in
            let w = Float.min width.(u) bw in
            if w > width.(v) then begin
              width.(v) <- w;
              prev.(v) <- Some (u, lid);
              Heap.add heap ~prio:(-.w) v
            end)
          (adjacent t u)
      end
    done;
    if width.(dst) > Float.neg_infinity then
      Some (reconstruct prev src dst, width.(dst))
    else None
  end

let hop_distance t src dst =
  Option.map (fun p -> List.length p.path_links) (shortest_path t src dst)

let simple_paths t ~max_hops src dst =
  let acc = ref [] in
  let rec go visited rev_nodes rev_links node depth =
    if node = dst then
      acc :=
        { hops = List.rev (node :: rev_nodes); path_links = List.rev rev_links }
        :: !acc
    else if depth < max_hops then
      List.iter
        (fun (v, lid) ->
          if not (List.mem v visited) then
            go (v :: visited) (node :: rev_nodes) (lid :: rev_links) v (depth + 1))
        (adjacent t node)
  in
  go [ src ] [] [] src 0;
  List.rev !acc

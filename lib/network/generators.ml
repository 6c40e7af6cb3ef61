open Topology
module Prng = Sekitei_util.Prng

let mk_node i = node i (Printf.sprintf "n%d" i)

let line_kinds kinds =
  let m = List.length kinds in
  let nodes = List.init (m + 1) mk_node in
  let links = List.mapi (fun i k -> link k i i (i + 1)) kinds in
  make ~nodes ~links

let line n =
  if n < 1 then invalid_arg "Generators.line: need at least one node";
  line_kinds (List.init (n - 1) (fun _ -> Lan))

let ring n =
  if n < 3 then invalid_arg "Generators.ring: need at least three nodes";
  let nodes = List.init n mk_node in
  let links = List.init n (fun i -> link Lan i i ((i + 1) mod n)) in
  make ~nodes ~links

let star n =
  if n < 1 then invalid_arg "Generators.star: need at least one leaf";
  let nodes = List.init (n + 1) mk_node in
  let links = List.init n (fun i -> link Lan i 0 (i + 1)) in
  make ~nodes ~links

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid";
  let id r c = (r * cols) + c in
  let nodes = List.init (rows * cols) mk_node in
  let links = ref [] in
  let next = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then begin
        links := link Lan !next (id r c) (id r (c + 1)) :: !links;
        incr next
      end;
      if r + 1 < rows then begin
        links := link Lan !next (id r c) (id (r + 1) c) :: !links;
        incr next
      end
    done
  done;
  make ~nodes ~links:(List.rev !links)

let transit_stub ?(extra_edge_prob = 0.15) ~rng ~transit ~stubs_per_transit
    ~stub_size () =
  if transit < 1 || stubs_per_transit < 0 || stub_size < 1 then
    invalid_arg "Generators.transit_stub";
  let total = transit * (1 + (stubs_per_transit * stub_size)) in
  let nodes = List.init total mk_node in
  let links = ref [] in
  let next_link = ref 0 in
  let add kind a b =
    links := link kind !next_link a b :: !links;
    incr next_link
  in
  let link_exists a b =
    List.exists
      (fun l ->
        let x, y = l.ends in
        (x = a && y = b) || (x = b && y = a))
      !links
  in
  (* Transit core: nodes 0 .. transit-1 in a ring (a path when transit = 2),
     plus random WAN chords. *)
  if transit >= 2 then
    for i = 0 to transit - 1 do
      let j = (i + 1) mod transit in
      if i < j || transit > 2 then if not (link_exists i j) then add Wan i j
    done;
  for i = 0 to transit - 1 do
    for j = i + 2 to transit - 1 do
      if (not (link_exists i j)) && Prng.bool rng extra_edge_prob then
        add Wan i j
    done
  done;
  (* Stub domains. *)
  let next_node = ref transit in
  for tr = 0 to transit - 1 do
    for _stub = 1 to stubs_per_transit do
      let members = Array.init stub_size (fun k -> !next_node + k) in
      next_node := !next_node + stub_size;
      (* Random spanning tree: connect each new member to a previous one. *)
      for k = 1 to stub_size - 1 do
        let parent = members.(Prng.int rng k) in
        add Lan parent members.(k)
      done;
      (* Waxman-style extra intra-stub edges. *)
      for a = 0 to stub_size - 1 do
        for b = a + 1 to stub_size - 1 do
          if
            (not (link_exists members.(a) members.(b)))
            && Prng.bool rng extra_edge_prob
          then add Lan members.(a) members.(b)
        done
      done;
      (* WAN uplink from a random stub member to the transit router. *)
      add Wan tr members.(Prng.int rng stub_size)
    done
  done;
  make ~nodes ~links:(List.rev !links)

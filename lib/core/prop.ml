type t = Placed of int * int | Avail of int * int * int

type interner = {
  n_comps : int;
  n_nodes : int;
  levels : int array;  (** per iface *)
  iface_base : int array;  (** id base per iface *)
  total : int;
}

let create ~n_comps ~n_nodes ~levels_per_iface =
  let placed_count = n_comps * n_nodes in
  let iface_base = Array.make (Array.length levels_per_iface) 0 in
  let next = ref placed_count in
  Array.iteri
    (fun i l ->
      iface_base.(i) <- !next;
      next := !next + (n_nodes * l))
    levels_per_iface;
  { n_comps; n_nodes; levels = levels_per_iface; iface_base; total = !next }

let count t = t.total

let placed_id t ~comp ~node =
  assert (comp >= 0 && comp < t.n_comps && node >= 0 && node < t.n_nodes);
  (comp * t.n_nodes) + node

let avail_id t ~iface ~node ~level =
  assert (iface >= 0 && iface < Array.length t.levels);
  assert (node >= 0 && node < t.n_nodes);
  assert (level >= 0 && level < t.levels.(iface));
  t.iface_base.(iface) + (node * t.levels.(iface)) + level

let id t = function
  | Placed (c, n) -> placed_id t ~comp:c ~node:n
  | Avail (i, n, l) -> avail_id t ~iface:i ~node:n ~level:l

let of_id t id =
  if id < t.n_comps * t.n_nodes then Placed (id / t.n_nodes, id mod t.n_nodes)
  else begin
    (* Find the interface whose range contains the id. *)
    let iface = ref (Array.length t.iface_base - 1) in
    while t.iface_base.(!iface) > id do
      decr iface
    done;
    let offset = id - t.iface_base.(!iface) in
    Avail (!iface, offset / t.levels.(!iface), offset mod t.levels.(!iface))
  end

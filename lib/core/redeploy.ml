(* Identifier hygiene: every id this module stores — component names and
   node ids in [previous] and the computed [diff] — is stable across
   every Mutate operation, and since link ids are now persistent too
   (removals tombstone instead of renumbering), nothing held across a
   replan can silently change meaning.  A caller that does store link
   ids gets Topology.Stale_link on a removed one instead of a wrong
   neighbor. *)

type policy = { keep_discount : float; migrate_surcharge : float }

let default_policy = { keep_discount = 5.; migrate_surcharge = 3. }

type diff = {
  kept : (string * int) list;
  moved : (string * int * int) list;
  added : (string * int) list;
  removed : (string * int) list;
}

let adjust_of policy previous ~comp ~node =
  match List.assoc_opt comp previous with
  | Some prev_node when prev_node = node -> -.policy.keep_discount
  | Some _ -> policy.migrate_surcharge
  | None -> 0.

let replan ?config ?(policy = default_policy) ~previous topo app leveling =
  Planner.plan
    ~adjust:(adjust_of policy previous)
    (Planner.request ?config topo app ~leveling)

let diff ~previous pb plan =
  let current = Plan.placements pb plan in
  let kept = ref [] and moved = ref [] and added = ref [] in
  List.iter
    (fun (comp, node) ->
      match List.assoc_opt comp previous with
      | Some prev when prev = node -> kept := (comp, node) :: !kept
      | Some prev -> moved := (comp, prev, node) :: !moved
      | None -> added := (comp, node) :: !added)
    current;
  let removed =
    List.filter (fun (comp, _) -> not (List.mem_assoc comp current)) previous
  in
  {
    kept = List.rev !kept;
    moved = List.rev !moved;
    added = List.rev !added;
    removed;
  }

let pp_diff fmt d =
  let pl = List.map (fun (c, n) -> Printf.sprintf "%s@n%d" c n) in
  Format.fprintf fmt "kept: %s; moved: %s; added: %s; removed: %s"
    (String.concat ", " (pl d.kept))
    (String.concat ", "
       (List.map (fun (c, a, b) -> Printf.sprintf "%s n%d->n%d" c a b) d.moved))
    (String.concat ", " (pl d.added))
    (String.concat ", " (pl d.removed))

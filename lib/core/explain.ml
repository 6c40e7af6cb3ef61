module I = Sekitei_util.Interval
module Table = Sekitei_util.Ascii_table
module Topology = Sekitei_network.Topology
module Model = Sekitei_spec.Model

type binding = {
  resource : string;
  location : string;
  capacity : float;
  step_used : float;
  total_used : float;
  slack : float;
}

type step = {
  index : int;
  label : string;
  cost_lb : float;
  realized_cost : float;
  levels : (string * I.t) list;
  binding : binding option;
}

type t = { steps : step list; plan_cost : float; realized_cost : float }

let node_name (pb : Problem.t) n =
  (Topology.get_node pb.topo n).Topology.node_name

let link_location (pb : Problem.t) l =
  let link = Topology.get_link pb.topo l in
  let a, b = link.Topology.ends in
  Printf.sprintf "%s-%s (%s)" (node_name pb a) (node_name pb b)
    (match link.Topology.kind with Topology.Lan -> "LAN" | Topology.Wan -> "WAN")

(* The level assignment shown for an action: the interfaces it produces
   (its output row of the optimistic resource map), falling back to the
   consumed interfaces for pure sinks like the client placement. *)
let levels_of (pb : Problem.t) (a : Action.t) =
  let named arr =
    Array.to_list arr
    |> List.map (fun (i, ivl) -> (pb.Problem.ifaces.(i).Model.iface_name, ivl))
  in
  match named a.Action.out_levels with [] -> named a.Action.in_levels | ls -> ls

let assoc_amount key l = Option.value (List.assoc_opt key l) ~default:0.

(* Per-pool consumption of a metrics snapshot, keyed the way the binding
   constraint of each action kind needs it. *)
let cpu_at (m : Replay.metrics) node = assoc_amount node m.Replay.node_cpu_used
let lbw_at (m : Replay.metrics) link = assoc_amount link m.Replay.link_used

let explain (pb : Problem.t) (plan : Plan.t) =
  let rec replay rs acc = function
    | [] -> Ok (List.rev acc, rs)
    | (a : Action.t) :: rest -> (
        match Replay.extend pb ~mode:Replay.From_init rs a with
        | Error f -> Error (Format.asprintf "%a" Replay.pp_failure f)
        | Ok rs' ->
            let before = Replay.rstate_metrics pb rs
            and after = Replay.rstate_metrics pb rs' in
            let realized =
              Replay.rstate_cost rs' -. Replay.rstate_cost rs
            in
            replay rs' ((a, realized, before, after) :: acc) rest)
  in
  match replay (Replay.initial pb) [] plan.Plan.steps with
  | Error _ as e -> e
  | Ok (trace, final_rs) ->
      let final = Replay.rstate_metrics pb final_rs in
      let binding_of (a : Action.t) before after =
        match a.Action.kind with
        | Action.Place { node; _ } ->
            let capacity = Problem.node_cap pb node "cpu" in
            if capacity <= 0. then None
            else
              let total_used = cpu_at final node in
              Some
                {
                  resource = "cpu";
                  location = node_name pb node;
                  capacity;
                  step_used = cpu_at after node -. cpu_at before node;
                  total_used;
                  slack = capacity -. total_used;
                }
        | Action.Cross { link; _ } ->
            let capacity = Problem.link_cap pb link "lbw" in
            if capacity <= 0. then None
            else
              let total_used = lbw_at final link in
              Some
                {
                  resource = "lbw";
                  location = link_location pb link;
                  capacity;
                  step_used = lbw_at after link -. lbw_at before link;
                  total_used;
                  slack = capacity -. total_used;
                }
      in
      let steps =
        List.mapi
          (fun index ((a : Action.t), realized, before, after) ->
            {
              index;
              label = a.Action.label;
              cost_lb = a.Action.cost_lb;
              realized_cost = realized;
              levels = levels_of pb a;
              binding = binding_of a before after;
            })
          trace
      in
      (* Sum in the search's accumulation order (regression prepends, so
         g added the last-executed action's cost first): the total then
         equals [Plan.cost_lb] bit for bit. *)
      let plan_cost =
        List.fold_left (fun acc s -> acc +. s.cost_lb) 0. (List.rev steps)
      in
      Ok { steps; plan_cost; realized_cost = final.Replay.realized_cost }

let level_cell levels =
  String.concat " "
    (List.map (fun (name, ivl) -> name ^ I.to_string ivl) levels)

let render t =
  let tbl =
    Table.create
      ~aligns:
        [
          Table.Right; Table.Left; Table.Right; Table.Right; Table.Left;
          Table.Left; Table.Right; Table.Right; Table.Right;
        ]
      [
        "#"; "action"; "cost lb"; "realized"; "levels"; "binding"; "cap";
        "used"; "slack";
      ]
  in
  List.iter
    (fun s ->
      let binding, cap, used, slack =
        match s.binding with
        | None -> ("-", "-", "-", "-")
        | Some b ->
            ( Printf.sprintf "%s@%s" b.resource b.location,
              Table.float_cell b.capacity,
              Table.float_cell b.total_used,
              Table.float_cell b.slack )
      in
      Table.add_row tbl
        [
          string_of_int s.index;
          s.label;
          Table.float_cell s.cost_lb;
          Table.float_cell s.realized_cost;
          level_cell s.levels;
          binding;
          cap;
          used;
          slack;
        ])
    t.steps;
  Table.add_separator tbl;
  Table.add_row tbl
    [
      "";
      "total";
      Table.float_cell t.plan_cost;
      Table.float_cell t.realized_cost;
      "";
      "";
      "";
      "";
      "";
    ];
  Table.render tbl

(* ------------------------------------------------------------------ *)
(* Unsolvability certificates                                          *)
(* ------------------------------------------------------------------ *)

let frontier_block stopped (fr : Rg.frontier) =
  let bullet prefix = function
    | [] -> prefix ^ " (none)\n"
    | items ->
        prefix ^ "\n"
        ^ String.concat "" (List.map (fun s -> "    " ^ s ^ "\n") items)
  in
  Printf.sprintf "%s: best frontier bound f = %g\n%s%s" stopped fr.Rg.best_f
    (bullet "  best-f node actions:" fr.Rg.tail)
    (bullet "  unmet preconditions:" fr.Rg.unmet)

let certificate = function
  | Session.Unreachable_goal { goals = goal :: _; chain } ->
      let cut = match List.rev chain with c :: _ -> c | [] -> goal in
      Some
        (Printf.sprintf
           "unsolvable: goal %s is logically unreachable\n\
           \  first goal-relevant proposition pruned by the PLRG: %s\n\
           \  support chain: %s\n"
           goal cut
           (String.concat " <- " chain))
  | Session.Search_limit { frontier; _ } ->
      Some (frontier_block "search budget exhausted" frontier)
  | Session.Deadline_exceeded { frontier = Some frontier; _ } ->
      Some (frontier_block "deadline reached" frontier)
  | Session.Unreachable_goal { goals = []; _ }
  | Session.Invalid_spec _ | Session.Resource_exhausted
  | Session.Deadline_exceeded { frontier = None; _ }
  | Session.Certification_failed _ ->
      None

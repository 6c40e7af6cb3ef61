(* Independent plan certifier: replays an emitted plan forward against
   the compiled problem's semantics and re-derives its cost bound from
   the specification formulae.

   Deliberately shares no code with the search layers it audits
   (Rg/Replay/Slrg): the interpreter below is written from the Problem/
   Model/Expr definitions alone, so a bug in the planner's replay
   machinery cannot vouch for itself.  See DESIGN.md. *)

module I = Sekitei_util.Interval
module D = Sekitei_util.Diagnostic
module Expr = Sekitei_expr.Expr
module Topology = Sekitei_network.Topology
module Model = Sekitei_spec.Model
module Problem = Sekitei_core.Problem
module Action = Sekitei_core.Action
module Plan = Sekitei_core.Plan

exception Reject of D.t

let reject ~code ~loc ?evidence fmt =
  Printf.ksprintf
    (fun m -> raise (Reject (D.make D.Error ~code ~loc ?evidence m)))
    fmt

let split_var v =
  match String.index_opt v '.' with
  | Some dot ->
      (String.sub v 0 dot, String.sub v (dot + 1) (String.length v - dot - 1))
  | None -> ("", v)

(* Mutable verification state: value intervals per stream and secondary
   property, cumulative resource consumption, and the achieved
   proposition set. *)
type st = {
  streams : (int * int, I.t) Hashtbl.t;
  secondaries : (int * int * string, I.t) Hashtbl.t;
  node_used : (int * string, float) Hashtbl.t;
  link_used : (int * string, float) Hashtbl.t;
  achieved : bool array;
}

let init_state (pb : Problem.t) =
  let st =
    {
      streams = Hashtbl.create 32;
      secondaries = Hashtbl.create 32;
      node_used = Hashtbl.create 32;
      link_used = Hashtbl.create 32;
      achieved = Array.copy pb.init;
    }
  in
  List.iter
    (fun (s : Problem.source) ->
      Hashtbl.replace st.streams (s.src_iface, s.src_node) s.src_interval;
      List.iter
        (fun (p, v) ->
          Hashtbl.replace st.secondaries (s.src_iface, s.src_node, p)
            (I.point v))
        s.src_secondary)
    pb.sources;
  st

(* Static node capacity minus what pre-placed components consumed before
   the plan starts; the reference every consumption check runs against. *)
let node_base (pb : Problem.t) node r =
  List.fold_left
    (fun acc (n, res, amt) ->
      if n = node && String.equal res r then acc -. amt else acc)
    (Problem.node_cap pb node r)
    pb.init_consumed

let node_remaining pb st node r =
  node_base pb node r
  -. Option.value (Hashtbl.find_opt st.node_used (node, r)) ~default:0.

let link_remaining (pb : Problem.t) st link r =
  Problem.link_cap pb link r
  -. Option.value (Hashtbl.find_opt st.link_used (link, r)) ~default:0.

(* Throttle a stream into the level a consumer assumes, under the
   primary property's tag: a degradable stream may be lowered into the
   level, an upgradable one raised, a rigid one must already overlap.
   Half-open suprema are exclusive, so a meet collapsing onto a single
   boundary value only succeeds against an exactly-attainable point. *)
let throttle tag cur assumed =
  let lo, hi =
    match tag with
    | Model.Degradable -> (I.lo assumed, Float.min (I.hi assumed) (I.hi cur))
    | Model.Upgradable -> (Float.max (I.lo assumed) (I.lo cur), I.hi assumed)
    | Model.Neither ->
        (Float.max (I.lo assumed) (I.lo cur), Float.min (I.hi assumed) (I.hi cur))
  in
  if hi > lo then Some (I.make lo hi)
  else if hi = lo && I.is_point cur && I.mem lo assumed then Some (I.point lo)
  else None

(* A checked level on a resource's exact remaining amount: the level
   must contain it, counting full capacity at the top cutpoint as
   satisfying "at least the top cutpoint". *)
let checked_ok rem ivl = I.mem rem ivl || rem = I.hi ivl

let secondary_default (pb : Problem.t) ~loc iface p =
  match Model.find_property pb.ifaces.(iface) p with
  | Some prop -> I.point prop.Model.prop_default
  | None -> reject ~code:"SKT205" ~loc "unknown property %s in a formula" p

let input_stream pb st ~loc iface node assumed =
  let tag = pb.Problem.iface_tags.(iface) in
  let name = pb.Problem.ifaces.(iface).Model.iface_name in
  match Hashtbl.find_opt st.streams (iface, node) with
  | None ->
      reject ~code:"SKT201" ~loc
        "required stream %s is not available on node %d" name node
  | Some cur -> (
      match throttle tag cur assumed with
      | Some eff ->
          Hashtbl.replace st.streams (iface, node) eff;
          eff
      | None ->
          reject ~code:"SKT202" ~loc
            ~evidence:
              [ ("stream", I.to_string cur); ("level", I.to_string assumed) ]
            "stream %s cannot be throttled into the assumed level" name)

let consume tbl ~key ~remaining ~loc ~code ~what amount =
  if not (Float.is_finite amount) then
    reject ~code ~loc "unbounded %s consumption" what;
  if remaining -. amount < -1e-9 then
    reject ~code ~loc
      ~evidence:
        [
          ("remaining", Printf.sprintf "%g" remaining);
          ("demand", Printf.sprintf "%g" amount);
        ]
      "%s overdrawn" what;
  Hashtbl.replace tbl key
    (amount +. Option.value (Hashtbl.find_opt tbl key) ~default:0.)

let narrow_output ~loc out_ivl assumed what =
  match I.inter out_ivl assumed with
  | Some x -> x
  | None ->
      reject ~code:"SKT206" ~loc
        ~evidence:
          [ ("computed", I.to_string out_ivl); ("level", I.to_string assumed) ]
        "computed %s output misses its declared level" what

let store_stream st iface node narrowed =
  let final =
    match Hashtbl.find_opt st.streams (iface, node) with
    | None -> narrowed
    | Some existing -> (
        match I.inter existing narrowed with
        | Some x -> x
        | None -> narrowed (* a fresh production supersedes *))
  in
  Hashtbl.replace st.streams (iface, node) final

(* Re-derivation of the action's admissible cost bound: the spec's cost
   formula at the infimum of the grounding environment — checked level
   intervals for resources, assumed level intervals for stream inputs,
   static capacity otherwise — plus the recorded adjustment.  This is
   the paper's "cost at the most optimistic operating point", recomputed
   from the Model formulae rather than trusted from the action. *)
let recheck_cost ~loc (pb : Problem.t) (a : Action.t) =
  let base =
    match a.Action.kind with
    | Action.Place { comp; node } ->
        let env v =
          match split_var v with
          | "node", r -> (
              match
                Array.find_opt (fun (r', _) -> String.equal r' r)
                  a.Action.checked_node
              with
              | Some (_, ivl) -> I.lo ivl
              | None -> Problem.node_cap pb node r)
          | iface_name, prop_name -> (
              match
                Array.find_opt
                  (fun (i, _) ->
                    String.equal pb.ifaces.(i).Model.iface_name iface_name)
                  a.Action.in_levels
              with
              | Some (i, ivl) ->
                  if String.equal prop_name (Problem.primary pb i) then
                    I.lo ivl
                  else I.lo I.full
              | None -> raise (Expr.Unbound_variable v))
        in
        Expr.eval ~env pb.comps.(comp).Model.place_cost
    | Action.Cross { iface; link; _ } ->
        let in_ivl =
          match a.Action.in_levels with
          | [| (_, ivl) |] -> ivl
          | _ ->
              reject ~code:"SKT207" ~loc
                "crossing does not carry exactly one input level"
        in
        let env v =
          match split_var v with
          | "link", r -> (
              match
                Array.find_opt (fun (r', _) -> String.equal r' r)
                  a.Action.checked_link
              with
              | Some (_, ivl) -> I.lo ivl
              | None -> Problem.link_cap pb link r)
          | "", p ->
              if String.equal p (Problem.primary pb iface) then I.lo in_ivl
              else I.lo I.full
          | _ -> raise (Expr.Unbound_variable v)
        in
        Expr.eval ~env pb.ifaces.(iface).Model.cross_cost
  in
  let expected = base +. a.Action.cost_extra in
  if not (Float.equal expected a.Action.cost_lb) then
    reject ~code:"SKT207" ~loc
      ~evidence:
        [
          ("recomputed", Printf.sprintf "%.17g" expected);
          ("recorded", Printf.sprintf "%.17g" a.Action.cost_lb);
        ]
      "action cost bound differs from the specification's formula at the \
       level infima"

let exec_place pb st ~loc (a : Action.t) comp node =
  if not (Topology.node_alive pb.Problem.topo node) then
    reject ~code:"SKT208" ~loc "placement on failed node %d" node;
  let c : Model.component = pb.Problem.comps.(comp) in
  Array.iter
    (fun (i, assumed) -> ignore (input_stream pb st ~loc i node assumed))
    a.Action.in_levels;
  let env v =
    match split_var v with
    | "node", r -> I.point (node_remaining pb st node r)
    | iface_name, prop_name -> (
        let i = Problem.iface_index pb iface_name in
        if String.equal prop_name (Problem.primary pb i) then
          match Hashtbl.find_opt st.streams (i, node) with
          | Some ivl -> ivl
          | None -> I.full (* a provide not yet computed *)
        else
          match Hashtbl.find_opt st.secondaries (i, node, prop_name) with
          | Some ivl -> ivl
          | None -> secondary_default pb ~loc i prop_name)
  in
  List.iter
    (fun cond ->
      if not (Expr.sat ~env cond) then
        reject ~code:"SKT205" ~loc "condition violated: %s"
          (Expr.cond_to_string cond))
    c.Model.conditions;
  Array.iter
    (fun (r, ivl) ->
      let rem = node_remaining pb st node r in
      if not (checked_ok rem ivl) then
        reject ~code:"SKT202" ~loc
          ~evidence:[ ("remaining", Printf.sprintf "%g" rem) ]
          "checked node level %s on %s violated" (I.to_string ivl) r)
    a.Action.checked_node;
  List.iter
    (fun (r, e) ->
      let amount = I.hi (Expr.eval_interval ~env e) in
      consume st.node_used ~key:(node, r)
        ~remaining:(node_remaining pb st node r)
        ~loc ~code:"SKT203"
        ~what:(Printf.sprintf "node %d resource %s" node r)
        amount)
    c.Model.consumes;
  Array.iter
    (fun (o, assumed) ->
      let prov = pb.Problem.ifaces.(o).Model.iface_name in
      let primary = Problem.primary pb o in
      let effect =
        match
          List.find_opt
            (fun (fi, fp, _) -> String.equal fi prov && String.equal fp primary)
            c.Model.effects
        with
        | Some (_, _, e) -> e
        | None -> reject ~code:"SKT206" ~loc "no effect computes %s" prov
      in
      let narrowed =
        narrow_output ~loc (Expr.eval_interval ~env effect) assumed prov
      in
      store_stream st o node narrowed;
      List.iter
        (fun (p : Model.property) ->
          if not (String.equal p.Model.prop_name primary) then
            let value =
              match
                List.find_opt
                  (fun (fi, fp, _) ->
                    String.equal fi prov && String.equal fp p.Model.prop_name)
                  c.Model.effects
              with
              | Some (_, _, e) -> Expr.eval_interval ~env e
              | None -> I.point p.Model.prop_default
            in
            Hashtbl.replace st.secondaries (o, node, p.Model.prop_name) value)
        pb.Problem.ifaces.(o).Model.properties)
    a.Action.out_levels

let exec_cross pb st ~loc (a : Action.t) iface link src dst =
  (match Topology.get_link pb.Problem.topo link with
  | l ->
      let x, y = l.Topology.ends in
      if not ((x = src && y = dst) || (x = dst && y = src)) then
        reject ~code:"SKT208" ~loc
          "link %d does not join nodes %d and %d" link src dst
  | exception Topology.Stale_link _ ->
      reject ~code:"SKT208" ~loc "link %d was removed from the topology" link);
  let ifc : Model.iface = pb.Problem.ifaces.(iface) in
  let primary = Problem.primary pb iface in
  let assumed_in =
    match a.Action.in_levels with
    | [| (_, ivl) |] -> ivl
    | _ -> reject ~code:"SKT202" ~loc "crossing carries no input level"
  in
  let eff = input_stream pb st ~loc iface src assumed_in in
  let env v =
    match split_var v with
    | "link", r -> I.point (link_remaining pb st link r)
    | "", p ->
        if String.equal p primary then eff
        else (
          match Hashtbl.find_opt st.secondaries (iface, src, p) with
          | Some ivl -> ivl
          | None -> secondary_default pb ~loc iface p)
    | _ -> reject ~code:"SKT205" ~loc "unexpected variable %s in cross formula" v
  in
  List.iter
    (fun cond ->
      if not (Expr.sat ~env cond) then
        reject ~code:"SKT205" ~loc "cross condition violated: %s"
          (Expr.cond_to_string cond))
    ifc.Model.cross_conditions;
  Array.iter
    (fun (r, ivl) ->
      let rem = link_remaining pb st link r in
      if not (checked_ok rem ivl) then
        reject ~code:"SKT202" ~loc
          ~evidence:[ ("remaining", Printf.sprintf "%g" rem) ]
          "checked link level %s on %s violated" (I.to_string ivl) r)
    a.Action.checked_link;
  (* Transforms are evaluated against the pre-consumption environment. *)
  let transformed =
    List.map
      (fun (p : Model.property) ->
        let p = p.Model.prop_name in
        match List.assoc_opt p ifc.Model.cross_transforms with
        | Some e -> (p, Expr.eval_interval ~env e)
        | None ->
            ( p,
              if String.equal p primary then eff
              else
                match Hashtbl.find_opt st.secondaries (iface, src, p) with
                | Some ivl -> ivl
                | None -> secondary_default pb ~loc iface p ))
      ifc.Model.properties
  in
  List.iter
    (fun (r, e) ->
      let amount = I.hi (Expr.eval_interval ~env e) in
      consume st.link_used ~key:(link, r)
        ~remaining:(link_remaining pb st link r)
        ~loc ~code:"SKT204"
        ~what:(Printf.sprintf "link %d resource %s" link r)
        amount)
    ifc.Model.cross_consumes;
  let assumed_out =
    match a.Action.out_levels with
    | [| (_, ivl) |] -> ivl
    | _ -> reject ~code:"SKT206" ~loc "crossing carries no output level"
  in
  List.iter
    (fun (p, ivl) ->
      if String.equal p primary then
        store_stream st iface dst (narrow_output ~loc ivl assumed_out p)
      else Hashtbl.replace st.secondaries (iface, dst, p) ivl)
    transformed

let exec pb st ~loc (a : Action.t) =
  Array.iter
    (fun pid ->
      if not st.achieved.(pid) then
        reject ~code:"SKT201" ~loc "precondition %s not established"
          (Problem.prop_label pb pid))
    a.Action.pre;
  (match a.Action.kind with
  | Action.Place { comp; node } -> exec_place pb st ~loc a comp node
  | Action.Cross { iface; link; src; dst } ->
      exec_cross pb st ~loc a iface link src dst);
  recheck_cost ~loc pb a;
  Array.iter (fun pid -> st.achieved.(pid) <- true) a.Action.add_closure

let run (pb : Problem.t) (plan : Plan.t) =
  let st = init_state pb in
  List.iteri
    (fun k (a : Action.t) ->
      let loc = Printf.sprintf "step %d (%s)" k a.Action.label in
      exec pb st ~loc a)
    plan.Plan.steps;
  Array.iter
    (fun pid ->
      if not st.achieved.(pid) then
        reject ~code:"SKT209"
          ~loc:(Printf.sprintf "goal %s" (Problem.prop_label pb pid))
          "goal proposition not satisfied at end of plan")
    pb.goal_props;
  (* Total bound: g accumulated along the regression path, i.e. the
     per-action bounds summed from the last step to the first. *)
  let recomputed =
    List.fold_left
      (fun acc (a : Action.t) -> acc +. a.Action.cost_lb)
      0.
      (List.rev plan.Plan.steps)
  in
  if not (Float.equal recomputed plan.Plan.cost_lb) then
    reject ~code:"SKT207" ~loc:"plan"
      ~evidence:
        [
          ("recomputed", Printf.sprintf "%.17g" recomputed);
          ("recorded", Printf.sprintf "%.17g" plan.Plan.cost_lb);
        ]
      "plan cost bound differs from the sum of its steps' bounds"

let check pb plan =
  match run pb plan with
  | () -> []
  | exception Reject d -> [ d ]
  | exception e ->
      [
        D.error ~code:"SKT207" ~loc:"plan" "certifier crashed: %s"
          (Printexc.to_string e);
      ]

let ok pb plan = check pb plan = []

let install () =
  Sekitei_core.Certifier.install (fun pb plan ->
      match check pb plan with
      | [] -> Ok ()
      | d :: _ -> Error (D.to_string d))

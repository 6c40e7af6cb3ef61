module I = Sekitei_util.Interval
module Expr = Sekitei_expr.Expr
module Topology = Sekitei_network.Topology
module Model = Sekitei_spec.Model
module Telemetry = Sekitei_telemetry.Telemetry

type mode = From_init | Regression

type failure = {
  failed_index : int;
  failed_action : string;
  reason : string Lazy.t;
}

type metrics = {
  realized_cost : float;
  lan_peak : float;
  wan_peak : float;
  lan_total : float;
  wan_total : float;
  node_cpu_used : (int * float) list;
  link_used : (int * float) list;
  delivered : (int * int * float) list;
}

type outcome = (metrics, failure) result

(* The reason is rendered only when read: the RG search discards most
   regression-mode failures without looking at them. *)
exception Fail of string Lazy.t

(* The execution state is four persistent maps in mutable fields: an
   action rebinds the fields of its own state record, so snapshotting a
   state for {!extend} is a four-field record copy and the parent's maps
   are never touched.  Keys compare monomorphically. *)
module Site_map = Map.Make (struct
  type t = int * int  (* iface, node *)

  let compare ((i1 : int), (n1 : int)) (i2, n2) =
    match Int.compare i1 i2 with 0 -> Int.compare n1 n2 | c -> c
end)

module Prop_map = Map.Make (struct
  type t = int * int * string  (* iface, node, secondary property *)

  let compare ((i1 : int), (n1 : int), p1) (i2, n2, p2) =
    match Int.compare i1 i2 with
    | 0 -> ( match Int.compare n1 n2 with 0 -> String.compare p1 p2 | c -> c)
    | c -> c
end)

module Res_map = Map.Make (struct
  type t = int * string  (* node or link id, resource *)

  let compare ((x1 : int), r1) (x2, r2) =
    match Int.compare x1 x2 with 0 -> String.compare r1 r2 | c -> c
end)

type state = {
  mutable prim : I.t Site_map.t;
  mutable sec : I.t Prop_map.t;
  mutable node_rem : float Res_map.t;
  mutable link_rem : float Res_map.t;
}

(* Throttle the current interval into the consumer's assumed level,
   honouring the property's tag (see the .mli).  The suprema of proper
   (half-open) intervals are exclusive: a stream constrained to [0,10)
   cannot deliver exactly 10, so a meet that collapses onto a single
   boundary value succeeds only when the current interval is a genuine
   point (an exactly attainable capacity). *)
let meet tag cur assumed =
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

let scale_interval scale ivl =
  if scale >= 1. then ivl
  else
    let hi = I.hi ivl *. scale in
    let lo = Float.min (I.lo ivl) hi in
    if hi > lo then I.make lo hi else I.point hi

let init_state ?(source_scale = 1.) (pb : Problem.t) =
  let st =
    {
      prim = Site_map.empty;
      sec = Prop_map.empty;
      node_rem = Res_map.empty;
      link_rem = Res_map.empty;
    }
  in
  List.iter
    (fun (s : Problem.source) ->
      st.prim <-
        Site_map.add (s.src_iface, s.src_node)
          (scale_interval source_scale s.src_interval)
          st.prim;
      List.iter
        (fun (p, v) ->
          st.sec <-
            Prop_map.add (s.src_iface, s.src_node, p) (I.point v) st.sec)
        s.src_secondary)
    pb.sources;
  st

(* Capacity before any replayed action runs (but after statically
   pre-consumed amounts): the reference point for checked levels in
   [Regression] mode, where the state's running remainder reflects
   consumption by actions that execute *later* in plan time. *)
let node_base (pb : Problem.t) node r =
  let base = Problem.node_cap pb node r in
  let consumed =
    List.fold_left
      (fun acc (n, res, amt) ->
        if n = node && String.equal res r then acc +. amt else acc)
      0. pb.init_consumed
  in
  base -. consumed

let link_base (pb : Problem.t) link r = Problem.link_cap pb link r

let node_remaining (pb : Problem.t) st node r =
  match Res_map.find_opt (node, r) st.node_rem with
  | Some v -> v
  | None -> node_base pb node r

let link_remaining (pb : Problem.t) st link r =
  match Res_map.find_opt (link, r) st.link_rem with
  | Some v -> v
  | None -> link_base pb link r

(* Operating point of an interval during metric computation. *)
let op ivl = I.hi ivl

let eval_cost env_ivl cost =
  (* Cost at operating points; meaningless pieces (unbounded intervals
     seeded in [Regression] mode) degrade to the infimum. *)
  let env v =
    let ivl = env_ivl v in
    if Float.is_finite (I.hi ivl) then I.hi ivl else I.lo ivl
  in
  match Expr.eval ~env cost with
  | v -> v
  | exception (Expr.Unbound_variable _ | Division_by_zero) -> 0.

let find_iface_index (pb : Problem.t) name =
  let rec go i =
    if i >= Array.length pb.ifaces then
      raise (Fail (lazy ("unknown interface " ^ name)))
    else if String.equal pb.ifaces.(i).Model.iface_name name then i
    else go (i + 1)
  in
  go 0

(* Fetch the effective input interval for [iface] at [node], seeding
   unknown inputs optimistically in [Regression] mode, and throttle it
   into [assumed]. *)
let effective_input pb st ~mode iface node assumed =
  let tag = pb.Problem.iface_tags.(iface) in
  let cur =
    match Site_map.find_opt (iface, node) st.prim with
    | Some cur -> cur
    | None -> (
        match mode with
        | From_init ->
            raise
              (Fail
                 (lazy
                   (Printf.sprintf "interface %s not available on node %d"
                      pb.ifaces.(iface).Model.iface_name node)))
        | Regression -> I.of_points [ 0.; pb.iface_max.(iface) ])
  in
  match meet tag cur assumed with
  | Some eff ->
      st.prim <- Site_map.add (iface, node) eff st.prim;
      eff
  | None ->
      raise
        (Fail
           (lazy
             (Printf.sprintf
                "interface %s at node %d: %s incompatible with level %s"
                pb.ifaces.(iface).Model.iface_name node (I.to_string cur)
                (I.to_string assumed))))

let secondary_value pb st iface node p =
  match Prop_map.find_opt (iface, node, p) st.sec with
  | Some ivl -> ivl
  | None -> (
      match Model.find_property pb.Problem.ifaces.(iface) p with
      | Some prop -> I.point prop.Model.prop_default
      | None -> raise (Fail (lazy ("unknown property " ^ p))))

let consume_node pb st node r amount =
  if not (Float.is_finite amount) then
    raise
      (Fail
         (lazy
           (Printf.sprintf "unbounded %s consumption on node %d" r node)));
  let rem = node_remaining pb st node r -. amount in
  if rem < -1e-9 then
    raise
      (Fail
         (lazy
           (Printf.sprintf "node %d out of %s (needs %g more)" node r
              (-.rem))));
  st.node_rem <- Res_map.add (node, r) rem st.node_rem

let consume_link pb st link r amount =
  if not (Float.is_finite amount) then
    raise
      (Fail
         (lazy
           (Printf.sprintf "unbounded %s consumption on link %d" r link)));
  let rem = link_remaining pb st link r -. amount in
  if rem < -1e-9 then
    raise
      (Fail
         (lazy
           (Printf.sprintf "link %d out of %s (needs %g more)" link r
              (-.rem))));
  st.link_rem <- Res_map.add (link, r) rem st.link_rem

(* A checked (unimportant) level assumption on the remaining amount of a
   node/link resource.  In [From_init] mode the remaining amount is exact,
   so the level must contain it (the upper boundary counts as inside: full
   capacity satisfies "at least the top cutpoint").  [Regression] mode
   replays in regression order, so the state's running remainder includes
   consumption by actions that execute *after* this one in plan time;
   callers therefore pass the base remaining amount (full capacity minus
   static pre-consumption), and since actions prepended later can only
   lower the amount actually remaining, the assumption is still reachable
   whenever the level's infimum is. *)
let checked_level_ok ~mode rem ivl =
  match mode with
  | Regression -> rem >= I.lo ivl -. 1e-9
  | From_init -> I.mem rem ivl || rem = I.hi ivl

let store_output out_ivl assumed what =
  match I.inter out_ivl assumed with
  | Some x -> x
  | None ->
      raise
        (Fail
           (lazy
             (Printf.sprintf "%s: computed %s misses level %s" what
                (I.to_string out_ivl) (I.to_string assumed))))

let exec_place pb st ~mode (act : Action.t) comp node =
  let c : Model.component = pb.Problem.comps.(comp) in
  (* 1. throttle inputs into their assumed levels *)
  Array.iter
    (fun (i, assumed) -> ignore (effective_input pb st ~mode i node assumed))
    act.Action.in_levels;
  (* 2. interval environment *)
  let env v =
    match Model.split_var v with
    | "node", r ->
        I.point
          (match mode with
          | Regression -> node_base pb node r
          | From_init -> node_remaining pb st node r)
    | iface_name, prop_name -> (
        let i = find_iface_index pb iface_name in
        let primary = Problem.primary pb i in
        if String.equal prop_name primary then
          match Site_map.find_opt (i, node) st.prim with
          | Some ivl -> ivl
          | None -> I.full (* a provide not yet computed *)
        else secondary_value pb st i node prop_name)
  in
  (* 3. conditions and checked node levels *)
  List.iter
    (fun cond ->
      if not (Expr.sat ~env cond) then
        raise
          (Fail
             (lazy ("condition unsatisfiable: " ^ Expr.cond_to_string cond))))
    c.Model.conditions;
  Array.iter
    (fun (r, ivl) ->
      let rem =
        match mode with
        | Regression -> node_base pb node r
        | From_init -> node_remaining pb st node r
      in
      if not (checked_level_ok ~mode rem ivl) then
        raise
          (Fail
             (lazy
               (Printf.sprintf "node %s level %s violated (remaining %g)" r
                  (I.to_string ivl) rem))))
    act.Action.checked_node;
  (* 4. consume at the supremum *)
  List.iter
    (fun (r, e) ->
      let civl = Expr.eval_interval ~env e in
      consume_node pb st node r (I.hi civl))
    c.Model.consumes;
  (* 5. outputs *)
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
        | None -> raise (Fail (lazy ("no effect for " ^ prov)))
      in
      let out_ivl = Expr.eval_interval ~env effect in
      let narrowed = store_output out_ivl assumed act.Action.label in
      let final =
        match Site_map.find_opt (o, node) st.prim with
        | None -> narrowed
        | Some existing -> (
            match I.inter existing narrowed with
            | Some x -> x
            | None -> narrowed (* a fresh production supersedes *))
      in
      st.prim <- Site_map.add (o, node) final st.prim;
      (* secondary properties of the produced interface *)
      List.iter
        (fun (p : Model.property) ->
          if not (String.equal p.Model.prop_name primary) then begin
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
            st.sec <- Prop_map.add (o, node, p.Model.prop_name) value st.sec
          end)
        pb.Problem.ifaces.(o).Model.properties)
    act.Action.out_levels;
  eval_cost env c.Model.place_cost

let exec_cross pb st ~mode (act : Action.t) iface link src dst =
  let ifc : Model.iface = pb.Problem.ifaces.(iface) in
  let primary = Problem.primary pb iface in
  let assumed_in =
    match act.Action.in_levels with
    | [| (_, ivl) |] -> ivl
    | _ -> assert false
  in
  let eff = effective_input pb st ~mode iface src assumed_in in
  let env v =
    match Model.split_var v with
    | "link", r ->
        I.point
          (match mode with
          | Regression -> link_base pb link r
          | From_init -> link_remaining pb st link r)
    | "", p ->
        if String.equal p primary then eff
        else secondary_value pb st iface src p
    | _, _ ->
        raise (Fail (lazy ("unexpected variable in cross formula: " ^ v)))
  in
  List.iter
    (fun cond ->
      if not (Expr.sat ~env cond) then
        raise
          (Fail
             (lazy
               ("cross condition unsatisfiable: " ^ Expr.cond_to_string cond))))
    ifc.Model.cross_conditions;
  Array.iter
    (fun (r, ivl) ->
      let rem =
        match mode with
        | Regression -> link_base pb link r
        | From_init -> link_remaining pb st link r
      in
      if not (checked_level_ok ~mode rem ivl) then
        raise
          (Fail
             (lazy
               (Printf.sprintf "link %s level %s violated (remaining %g)" r
                  (I.to_string ivl) rem))))
    act.Action.checked_link;
  (* Evaluate all transforms against the pre-consumption environment. *)
  let transformed =
    List.map
      (fun (p : Model.property) ->
        let p = p.Model.prop_name in
        match List.assoc_opt p ifc.Model.cross_transforms with
        | Some e -> (p, Expr.eval_interval ~env e)
        | None ->
            ( p,
              if String.equal p primary then eff
              else secondary_value pb st iface src p ))
      ifc.Model.properties
  in
  List.iter
    (fun (r, e) ->
      let civl = Expr.eval_interval ~env e in
      consume_link pb st link r (I.hi civl))
    ifc.Model.cross_consumes;
  let assumed_out =
    match act.Action.out_levels with
    | [| (_, ivl) |] -> ivl
    | _ -> assert false
  in
  List.iter
    (fun (p, ivl) ->
      if String.equal p primary then begin
        let narrowed = store_output ivl assumed_out act.Action.label in
        let final =
          match Site_map.find_opt (iface, dst) st.prim with
          | None -> narrowed
          | Some existing -> (
              match I.inter existing narrowed with
              | Some x -> x
              | None -> narrowed)
        in
        st.prim <- Site_map.add (iface, dst) final st.prim
      end
      else st.sec <- Prop_map.add (iface, dst, p) ivl st.sec)
    transformed;
  eval_cost env ifc.Model.cross_cost

let collect_metrics (pb : Problem.t) st realized_cost =
  let lan_peak = ref 0.
  and wan_peak = ref 0.
  and lan_total = ref 0.
  and wan_total = ref 0. in
  let link_used = ref [] in
  Array.iter
    (fun (l : Topology.link) ->
      let cap = Problem.link_cap pb l.Topology.link_id "lbw" in
      let used = cap -. link_remaining pb st l.Topology.link_id "lbw" in
      if used > 1e-9 then begin
        link_used := (l.Topology.link_id, used) :: !link_used;
        match l.Topology.kind with
        | Topology.Lan ->
            lan_peak := Float.max !lan_peak used;
            lan_total := !lan_total +. used
        | Topology.Wan ->
            wan_peak := Float.max !wan_peak used;
            wan_total := !wan_total +. used
      end)
    (Topology.links pb.topo);
  (* Map folds run in ascending key order, so the reversed accumulations
     come out sorted by node and by (iface, node) respectively. *)
  let node_cpu_used =
    Res_map.fold
      (fun (node, r) rem acc ->
        if String.equal r "cpu" then
          (node, Problem.node_cap pb node r -. rem) :: acc
        else acc)
      st.node_rem []
    |> List.rev
  in
  let delivered =
    Site_map.fold
      (fun (iface, node) ivl acc ->
        if Float.is_finite (op ivl) then (iface, node, op ivl) :: acc else acc)
      st.prim []
    |> List.rev
  in
  {
    realized_cost;
    lan_peak = !lan_peak;
    wan_peak = !wan_peak;
    lan_total = !lan_total;
    wan_total = !wan_total;
    node_cpu_used;
    link_used = List.rev !link_used;
    delivered;
  }

(* Execute one action against [st] (mutating it), returning the action's
   realized cost contribution.  Raises [Fail] (or [Division_by_zero] out of
   a specification formula) on infeasibility. *)
let exec_action pb st ~mode (act : Action.t) =
  let c =
    match act.Action.kind with
    | Action.Place { comp; node } -> exec_place pb st ~mode act comp node
    | Action.Cross { iface; link; src; dst } ->
        exec_cross pb st ~mode act iface link src dst
  in
  Float.max 0. (c +. act.Action.cost_extra)

(* ------------------------------------------------------------------ *)
(* Incremental replay states                                           *)
(* ------------------------------------------------------------------ *)

type rstate = { rst : state; rcost : float; rlen : int }

let initial pb = { rst = init_state pb; rcost = 0.; rlen = 0 }

let extend pb ~mode rs (act : Action.t) =
  (* The child rebinds its own fields; the parent's maps are shared, not
     copied, and never change. *)
  let p = rs.rst in
  let st =
    { prim = p.prim; sec = p.sec; node_rem = p.node_rem; link_rem = p.link_rem }
  in
  match exec_action pb st ~mode act with
  | c -> Ok { rst = st; rcost = rs.rcost +. c; rlen = rs.rlen + 1 }
  | exception Fail reason ->
      Error { failed_index = rs.rlen; failed_action = act.Action.label; reason }
  | exception Division_by_zero ->
      Error
        {
          failed_index = rs.rlen;
          failed_action = act.Action.label;
          reason = lazy "division by zero in a specification formula";
        }

let rstate_cost rs = rs.rcost
let rstate_length rs = rs.rlen
let rstate_metrics pb rs = collect_metrics pb rs.rst rs.rcost

let run ?(telemetry = Telemetry.null) ?source_scale pb ~mode tail =
  let sp = Telemetry.begin_span telemetry "replay" in
  let rec go rs = function
    | [] -> Ok (rstate_metrics pb rs)
    | act :: rest -> Result.bind (extend pb ~mode rs act) (fun rs -> go rs rest)
  in
  let out =
    go { rst = init_state ?source_scale pb; rcost = 0.; rlen = 0 } tail
  in
  ignore
    (Telemetry.end_span telemetry sp
       ~attrs:
         [
           ("actions", Telemetry.Int (List.length tail));
           ("ok", Telemetry.Bool (Result.is_ok out));
         ]);
  out

let pp_failure fmt f =
  Format.fprintf fmt "action %d (%s): %s" f.failed_index f.failed_action
    (Lazy.force f.reason)

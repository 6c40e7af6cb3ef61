module Expr = Sekitei_expr.Expr
module Topology = Sekitei_network.Topology
module D = Sekitei_util.Diagnostic

(* All validation findings are errors: an invalid spec never reaches the
   compiler.  Codes follow the SKT0xx block documented in
   {!Sekitei_util.Diagnostic}. *)
let check_diagnostics topo (app : Model.app) =
  let diags = ref [] in
  let report ~code where what = diags := D.make D.Error ~code ~loc:where what :: !diags in
  let node_resources = Topology.node_resource_names topo in
  (* A topology without links defines no link resources at all; treating
     every cross formula as dangling would reject otherwise-fine specs, so
     link-resource checks are skipped in that degenerate case (crossings
     are impossible anyway). *)
  let no_links = Array.length (Topology.links topo) = 0 in
  let link_resources = Topology.link_resource_names topo in
  let link_resource_ok r = no_links || List.mem r link_resources in
  let iface_names = List.map (fun (i : Model.iface) -> i.iface_name) app.interfaces in
  let dup names what where =
    let sorted = List.sort compare names in
    let rec scan = function
      | a :: (b :: _ as rest) ->
          if String.equal a b then
            report ~code:"SKT001" where (Printf.sprintf "duplicate %s %s" what a);
          scan rest
      | _ -> ()
    in
    scan sorted
  in
  dup iface_names "interface" "app";
  dup (List.map (fun (c : Model.component) -> c.comp_name) app.components)
    "component" "app";

  (* Variables legal in a component formula of [comp]. *)
  let component_var_ok (comp : Model.component) v =
    match Model.split_var v with
    | "", _ -> false
    | "node", r -> List.mem r node_resources
    | iface, prop -> (
        (List.mem iface comp.requires || List.mem iface comp.provides)
        &&
        match Model.find_iface app iface with
        | Some i -> Model.find_property i prop <> None
        | None -> false)
  in
  (* Variables legal in a cross formula of interface [i]. *)
  let cross_var_ok (i : Model.iface) v =
    match Model.split_var v with
    | "", _ -> Model.find_property i v <> None
    | "link", r -> link_resource_ok r
    | _ -> false
  in

  List.iter
    (fun (i : Model.iface) ->
      let where = "interface " ^ i.iface_name in
      dup (List.map (fun p -> p.Model.prop_name) i.properties) "property" where;
      if i.properties = [] then report ~code:"SKT004" where "no properties";
      let check_vars what e =
        List.iter
          (fun v ->
            if not (cross_var_ok i v) then
              report ~code:"SKT002" where
                (Printf.sprintf "%s references unknown variable %s" what v))
          (Expr.vars e)
      in
      List.iter
        (fun (p, e) ->
          if Model.find_property i p = None then
            report ~code:"SKT004" where
              (Printf.sprintf "cross transform targets unknown property %s" p);
          check_vars "cross transform" e;
          (* Endpoint interval evaluation requires monotone transforms. *)
          List.iter
            (fun v ->
              match Model.split_var v with
              | "", _ -> (
                  match Expr.monotonicity e v with
                  | Expr.Increasing | Expr.Constant | Expr.Decreasing -> ()
                  | Expr.Unknown ->
                      report ~code:"SKT003" where
                        (Printf.sprintf
                           "cross transform for %s is not provably monotone in %s" p v))
              | _ -> ())
            (Expr.vars e))
        i.cross_transforms;
      List.iter
        (fun (r, e) ->
          if not (link_resource_ok r) then
            report ~code:"SKT004" where
              (Printf.sprintf "consumes unknown link resource %s" r);
          check_vars "cross consumption" e)
        i.cross_consumes;
      List.iter
        (fun c ->
          List.iter
            (fun v ->
              if not (cross_var_ok i v) then
                report ~code:"SKT002" where
                  (Printf.sprintf "cross condition references unknown variable %s" v))
            (Expr.cond_vars c))
        i.cross_conditions;
      check_vars "cross cost" i.cross_cost)
    app.interfaces;

  List.iter
    (fun (c : Model.component) ->
      let where = "component " ^ c.comp_name in
      List.iter
        (fun i ->
          if not (List.mem i iface_names) then
            report ~code:"SKT004" where
              (Printf.sprintf "requires unknown interface %s" i))
        c.requires;
      List.iter
        (fun i ->
          if not (List.mem i iface_names) then
            report ~code:"SKT004" where
              (Printf.sprintf "provides unknown interface %s" i))
        c.provides;
      let check_vars what e =
        List.iter
          (fun v ->
            if not (component_var_ok c v) then
              report ~code:"SKT002" where
                (Printf.sprintf "%s references unknown variable %s" what v))
          (Expr.vars e)
      in
      List.iter
        (fun cond ->
          List.iter
            (fun v ->
              if not (component_var_ok c v) then
                report ~code:"SKT002" where
                  (Printf.sprintf "condition references unknown variable %s" v))
            (Expr.cond_vars cond))
        c.conditions;
      List.iter
        (fun (iface, prop, e) ->
          if not (List.mem iface c.provides) then
            report ~code:"SKT004" where
              (Printf.sprintf "effect targets %s which is not provided" iface);
          (match Model.find_iface app iface with
          | Some i when Model.find_property i prop = None ->
              report ~code:"SKT004" where
                (Printf.sprintf "effect targets unknown property %s.%s" iface prop)
          | _ -> ());
          check_vars "effect" e;
          List.iter
            (fun v ->
              match Expr.monotonicity e v with
              | Expr.Increasing | Expr.Constant | Expr.Decreasing -> ()
              | Expr.Unknown ->
                  report ~code:"SKT003" where
                    (Printf.sprintf "effect for %s.%s is not provably monotone in %s"
                       iface prop v))
            (Expr.vars e))
        c.effects;
      (* Every provided primary property should be set by some effect. *)
      List.iter
        (fun iface ->
          match Model.find_iface app iface with
          | Some i ->
              let primary = (Model.primary_property i).prop_name in
              if
                not
                  (List.exists
                     (fun (fi, fp, _) ->
                       String.equal fi iface && String.equal fp primary)
                     c.effects)
              then
                report ~code:"SKT004" where
                  (Printf.sprintf "provides %s but never sets %s.%s" iface iface primary)
          | None -> ())
        c.provides;
      List.iter
        (fun (r, e) ->
          if not (List.mem r node_resources) then
            report ~code:"SKT004" where
              (Printf.sprintf "consumes unknown node resource %s" r);
          check_vars "consumption" e)
        c.consumes;
      check_vars "cost" c.place_cost)
    app.components;

  let n = Topology.node_count topo in
  List.iter
    (fun (comp, node) ->
      if Model.find_component app comp = None then
        report ~code:"SKT005" "pre_placed" (Printf.sprintf "unknown component %s" comp);
      if node < 0 || node >= n then
        report ~code:"SKT005" "pre_placed" (Printf.sprintf "node %d out of range" node))
    app.pre_placed;
  List.iter
    (fun g ->
      match g with
      | Model.Placed (comp, node) ->
          if Model.find_component app comp = None then
            report ~code:"SKT005" "goal" (Printf.sprintf "unknown component %s" comp);
          if node < 0 || node >= n then
            report ~code:"SKT005" "goal" (Printf.sprintf "node %d out of range" node)
      | Model.Available (iface, prop, node, _) ->
          (match Model.find_iface app iface with
          | None ->
              report ~code:"SKT005" "goal" (Printf.sprintf "unknown interface %s" iface)
          | Some i ->
              if Model.find_property i prop = None then
                report ~code:"SKT005" "goal"
                  (Printf.sprintf "unknown property %s.%s" iface prop));
          if node < 0 || node >= n then
            report ~code:"SKT005" "goal" (Printf.sprintf "node %d out of range" node))
    app.goals;
  if app.goals = [] then report ~code:"SKT006" "goal" "no goals";
  List.rev !diags

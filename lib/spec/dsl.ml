module Expr = Sekitei_expr.Expr
module Topology = Sekitei_network.Topology

type document = {
  topo : Topology.t option;
  app : Model.app;
  leveling : Leveling.t;
}

exception Dsl_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Dsl_error s)) fmt

(* --------------------------------------------------------------------- *)
(* Statement scanner: strips comments, then cuts the input into           *)
(* top-level items [keyword name { statements }] or [statement;], where   *)
(* statements inside blocks are ;-separated strings.                      *)
(* --------------------------------------------------------------------- *)

type item =
  | Block of string * string * string list  (** keyword, name, statements *)
  | Stmt of string

let strip_comments s =
  let buf = Buffer.create (String.length s) in
  let in_comment = ref false in
  String.iter
    (fun ch ->
      if !in_comment then begin
        if ch = '\n' then begin
          in_comment := false;
          Buffer.add_char buf ch
        end
      end
      else if ch = '#' then in_comment := true
      else Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let split_statements body =
  String.split_on_char ';' body
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let scan_items text =
  let text = strip_comments text in
  let n = String.length text in
  let items = ref [] in
  let i = ref 0 in
  let skip_ws () =
    while !i < n && (text.[!i] = ' ' || text.[!i] = '\n' || text.[!i] = '\t' || text.[!i] = '\r') do
      incr i
    done
  in
  skip_ws ();
  while !i < n do
    (* Read up to either '{' (block) or ';' (bare statement). *)
    let start = !i in
    while !i < n && text.[!i] <> '{' && text.[!i] <> ';' do
      incr i
    done;
    if !i >= n then begin
      if String.trim (String.sub text start (n - start)) <> "" then
        fail "trailing input without terminator: %S"
          (String.trim (String.sub text start (n - start)))
    end
    else if text.[!i] = ';' then begin
      let stmt = String.trim (String.sub text start (!i - start)) in
      incr i;
      if stmt <> "" then items := Stmt stmt :: !items
    end
    else begin
      (* block *)
      let header = String.trim (String.sub text start (!i - start)) in
      incr i;
      let body_start = !i in
      let depth = ref 1 in
      while !i < n && !depth > 0 do
        (match text.[!i] with
        | '{' -> incr depth
        | '}' -> decr depth
        | _ -> ());
        incr i
      done;
      if !depth > 0 then fail "unterminated block %S" header;
      let body = String.sub text body_start (!i - 1 - body_start) in
      let keyword, name =
        match
          String.split_on_char ' ' header |> List.filter (fun s -> s <> "")
        with
        | [ kw ] -> (kw, "")
        | [ kw; name ] -> (kw, name)
        | _ -> fail "bad block header %S" header
      in
      items := Block (keyword, name, split_statements body) :: !items
    end;
    skip_ws ()
  done;
  List.rev !items

(* --------------------------------------------------------------------- *)
(* Statement helpers                                                      *)
(* --------------------------------------------------------------------- *)

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun w -> w <> "")

(* "effect M.ibw := T.ibw + I.ibw" -> ("M.ibw", "T.ibw + I.ibw") *)
let split_assign stmt what =
  match Str_split.split_once stmt ":=" with
  | Some (lhs, rhs) -> (String.trim lhs, String.trim rhs)
  | None -> fail "%s statement needs ':=' in %S" what stmt

let split_dotted v =
  match Model.split_var v with
  | "", _ -> fail "expected qualified name X.y, got %S" v
  | qualified -> qualified

(* A numeric literal; NaN is never a meaningful value. *)
let number what text =
  match float_of_string_opt text with
  | Some v when not (Float.is_nan v) -> v
  | Some _ | None -> fail "bad %s %S" what text

let parse_expr_or_fail what text =
  match Expr.parse text with
  | e -> e
  | exception Expr.Parse_error m -> fail "%s: %s in %S" what m text

let parse_cond_or_fail what text =
  match Expr.parse_cond text with
  | c -> c
  | exception Expr.Parse_error m -> fail "%s: %s in %S" what m text

let drop_prefix prefix stmt =
  let pl = String.length prefix in
  if String.length stmt > pl && String.sub stmt 0 pl = prefix then
    Some (String.trim (String.sub stmt pl (String.length stmt - pl)))
  else None

(* --------------------------------------------------------------------- *)
(* Interface blocks                                                       *)
(* --------------------------------------------------------------------- *)

let parse_tag = function
  | "degradable" -> Model.Degradable
  | "upgradable" -> Model.Upgradable
  | "neither" -> Model.Neither
  | t -> fail "unknown tag %S" t

let parse_property rest =
  (* "ibw degradable" | "lat = 0 neither" | "ibw" *)
  match words rest with
  | [ name ] -> Model.property name
  | [ name; tag ] -> Model.property ~tag:(parse_tag tag) name
  | [ name; "="; v ] ->
      Model.property ~default:(number "property default" v) name
  | [ name; "="; v; tag ] ->
      Model.property
        ~default:(number "property default" v)
        ~tag:(parse_tag tag) name
  | _ -> fail "bad property statement %S" rest

let parse_levels_stmt rest =
  (* "ibw: 30, 70, 90" -> (target, cutpoints) *)
  match String.index_opt rest ':' with
  | None -> fail "levels statement needs ':' in %S" rest
  | Some colon ->
      let target = String.trim (String.sub rest 0 colon) in
      let cuts =
        String.sub rest (colon + 1) (String.length rest - colon - 1)
        |> String.split_on_char ','
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map (number "cutpoint")
      in
      (target, cuts)

let parse_iface name stmts =
  let properties = ref [] in
  let transforms = ref [] in
  let consumes = ref [] in
  let conditions = ref [] in
  let cost = ref None in
  let levels = ref [] in
  List.iter
    (fun stmt ->
      match drop_prefix "property " stmt with
      | Some rest -> properties := parse_property rest :: !properties
      | None -> (
          match drop_prefix "cross " stmt with
          | Some rest ->
              let lhs, rhs = split_assign rest "cross" in
              transforms :=
                (lhs, parse_expr_or_fail "cross transform" rhs) :: !transforms
          | None -> (
              match drop_prefix "consume " stmt with
              | Some rest ->
                  let lhs, rhs =
                    match Str_split.split_once rest "-=" with
                    | Some (l, r) -> (String.trim l, String.trim r)
                    | None -> fail "consume needs '-=' in %S" stmt
                  in
                  let scope, res = split_dotted lhs in
                  if scope <> "link" then
                    fail "interface consumption must target link.*, got %S" lhs;
                  consumes :=
                    (res, parse_expr_or_fail "cross consumption" rhs) :: !consumes
              | None -> (
                  match drop_prefix "condition " stmt with
                  | Some rest ->
                      conditions :=
                        parse_cond_or_fail "cross condition" rest :: !conditions
                  | None -> (
                      match drop_prefix "cost " stmt with
                      | Some rest ->
                          cost := Some (parse_expr_or_fail "cross cost" rest)
                      | None -> (
                          match drop_prefix "levels " stmt with
                          | Some rest -> levels := parse_levels_stmt rest :: !levels
                          | None -> fail "unknown interface statement %S" stmt))))))
    stmts;
  if !properties = [] then fail "interface %s declares no properties" name;
  let iface =
    Model.iface
      ?cross_transforms:(if !transforms = [] then None else Some (List.rev !transforms))
      ?cross_consumes:(if !consumes = [] then None else Some (List.rev !consumes))
      ~cross_conditions:(List.rev !conditions)
      ?cross_cost:!cost
      ~properties:(List.rev !properties)
      name
  in
  (iface, List.rev_map (fun (p, cuts) -> (name, p, cuts)) !levels)

(* --------------------------------------------------------------------- *)
(* Component blocks                                                       *)
(* --------------------------------------------------------------------- *)

let parse_name_list rest =
  String.split_on_char ',' rest |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let parse_component name stmts =
  let requires = ref [] in
  let provides = ref [] in
  let conditions = ref [] in
  let effects = ref [] in
  let consumes = ref [] in
  let cost = ref None in
  let placeable = ref true in
  List.iter
    (fun stmt ->
      if stmt = "anchored" then placeable := false
      else
        match drop_prefix "requires " stmt with
        | Some rest -> requires := !requires @ parse_name_list rest
        | None -> (
            match drop_prefix "provides " stmt with
            | Some rest -> provides := !provides @ parse_name_list rest
            | None -> (
                match drop_prefix "condition " stmt with
                | Some rest ->
                    conditions :=
                      parse_cond_or_fail "component condition" rest :: !conditions
                | None -> (
                    match drop_prefix "effect " stmt with
                    | Some rest ->
                        let lhs, rhs = split_assign rest "effect" in
                        let iface, prop = split_dotted lhs in
                        effects :=
                          (iface, prop, parse_expr_or_fail "effect" rhs) :: !effects
                    | None -> (
                        match drop_prefix "consume " stmt with
                        | Some rest ->
                            let lhs, rhs =
                              match Str_split.split_once rest "-=" with
                              | Some (l, r) -> (String.trim l, String.trim r)
                              | None -> fail "consume needs '-=' in %S" stmt
                            in
                            let scope, res = split_dotted lhs in
                            if scope <> "node" then
                              fail "component consumption must target node.*, got %S"
                                lhs;
                            consumes :=
                              (res, parse_expr_or_fail "consumption" rhs)
                              :: !consumes
                        | None -> (
                            match drop_prefix "cost " stmt with
                            | Some rest ->
                                cost := Some (parse_expr_or_fail "place cost" rest)
                            | None -> fail "unknown component statement %S" stmt))))))
    stmts;
  Model.component ~requires:!requires ~provides:!provides
    ~conditions:(List.rev !conditions)
    ~effects:(List.rev !effects)
    ~consumes:(List.rev !consumes)
    ?place_cost:!cost ~placeable:!placeable name

(* --------------------------------------------------------------------- *)
(* Network block                                                          *)
(* --------------------------------------------------------------------- *)

(* Capacities must be finite and non-negative: grounding reads an
   unleveled resource as the point interval at its capacity, [inf] has
   none, and a negative capacity is a pool already overdrawn. *)
let rec parse_resource_pairs acc = function
  | [] -> List.rev acc
  | name :: value :: rest ->
      let v = number "resource value" value in
      if not (Float.is_finite v) || v < 0. then
        fail "bad resource value %S" value;
      parse_resource_pairs ((name, v) :: acc) rest
  | [ odd ] -> fail "dangling resource token %S" odd

let parse_network stmts =
  let node_names = Hashtbl.create 16 in
  let nodes = ref [] in
  let links = ref [] in
  let next_node = ref 0 in
  let next_link = ref 0 in
  List.iter
    (fun stmt ->
      match drop_prefix "node " stmt with
      | Some rest -> (
          match words rest with
          | name :: res_tokens ->
              let resources = parse_resource_pairs [] res_tokens in
              let cpu = Option.value (List.assoc_opt "cpu" resources) ~default:30. in
              let extra = List.remove_assoc "cpu" resources in
              if Hashtbl.mem node_names name then fail "duplicate node %S" name;
              Hashtbl.add node_names name !next_node;
              nodes := Topology.node ~cpu ~resources:extra !next_node name :: !nodes;
              incr next_node
          | [] -> fail "empty node statement")
      | None -> (
          match drop_prefix "link " stmt with
          | Some rest -> (
              match words rest with
              | a :: "--" :: b :: kind :: res_tokens ->
                  let kind =
                    match kind with
                    | "lan" -> Topology.Lan
                    | "wan" -> Topology.Wan
                    | k -> fail "unknown link kind %S (lan|wan)" k
                  in
                  let resources = parse_resource_pairs [] res_tokens in
                  let bw = List.assoc_opt "lbw" resources in
                  let extra = List.remove_assoc "lbw" resources in
                  let id_of n =
                    match Hashtbl.find_opt node_names n with
                    | Some id -> id
                    | None -> fail "link references unknown node %S" n
                  in
                  links :=
                    Topology.link ?bw ~resources:extra kind !next_link (id_of a)
                      (id_of b)
                    :: !links;
                  incr next_link
              | _ -> fail "bad link statement %S (want: link a -- b lan|wan ...)" stmt)
          | None -> fail "unknown network statement %S" stmt))
    stmts;
  (Topology.make ~nodes:(List.rev !nodes) ~links:(List.rev !links), node_names)

(* --------------------------------------------------------------------- *)
(* Deploy block                                                           *)
(* --------------------------------------------------------------------- *)

let node_id node_names name =
  match node_names with
  | Some tbl -> (
      match Hashtbl.find_opt tbl name with
      | Some id -> id
      | None -> fail "unknown node %S in deploy block" name)
  | None -> (
      (* No network block: accept n<id> numeric names. *)
      match
        if String.length name > 1 && name.[0] = 'n' then
          int_of_string_opt (String.sub name 1 (String.length name - 1))
        else int_of_string_opt name
      with
      | Some id -> id
      | None -> fail "cannot resolve node %S without a network block" name)

let parse_deploy node_names stmts =
  let pre_placed = ref [] in
  let goals = ref [] in
  List.iter
    (fun stmt ->
      match drop_prefix "place " stmt with
      | Some rest -> (
          match words rest with
          | [ comp; "on"; node ] ->
              pre_placed := (comp, node_id node_names node) :: !pre_placed
          | _ -> fail "bad place statement %S" stmt)
      | None -> (
          match drop_prefix "goal " stmt with
          | Some rest -> (
              match words rest with
              | [ comp; "on"; node ] ->
                  goals := Model.Placed (comp, node_id node_names node) :: !goals
              | [ qualified; ">="; v; "on"; node ] ->
                  let iface, prop = split_dotted qualified in
                  goals :=
                    Model.Available
                      ( iface,
                        prop,
                        node_id node_names node,
                        number "goal value" v )
                    :: !goals
              | _ -> fail "bad goal statement %S" stmt)
          | None -> fail "unknown deploy statement %S" stmt))
    stmts;
  (List.rev !pre_placed, List.rev !goals)

(* --------------------------------------------------------------------- *)
(* Document                                                               *)
(* --------------------------------------------------------------------- *)

let parse_document text =
  let items = scan_items text in
  let interfaces = ref [] in
  let iface_levels = ref [] in
  let components = ref [] in
  let network = ref None in
  let deploy = ref ([], []) in
  let extra_levels = ref [] in
  List.iter
    (fun item ->
      match item with
      | Block ("interface", name, stmts) ->
          let iface, levels = parse_iface name stmts in
          interfaces := iface :: !interfaces;
          iface_levels := levels @ !iface_levels
      | Block ("component", name, stmts) ->
          components := parse_component name stmts :: !components
      | Block ("network", "", stmts) ->
          if !network <> None then fail "duplicate network block";
          network := Some (parse_network stmts)
      | Block ("deploy", "", stmts) ->
          let names = Option.map snd !network in
          deploy := parse_deploy names stmts
      | Block (kw, _, _) -> fail "unknown block %S" kw
      | Stmt stmt -> (
          match drop_prefix "levels " stmt with
          | Some rest -> extra_levels := parse_levels_stmt rest :: !extra_levels
          | None -> fail "unknown top-level statement %S" stmt))
    items;
  let pre_placed, goals = !deploy in
  let app =
    {
      Model.interfaces = List.rev !interfaces;
      components = List.rev !components;
      pre_placed;
      goals;
    }
  in
  (* Leveling rejects cutpoints that are not finite, positive and
     strictly increasing; report that as a spec error naming the
     statement. *)
  let checked target cuts add =
    match add () with
    | leveling -> leveling
    | exception Invalid_argument _ ->
        fail
          "levels %s: cutpoints must be finite, positive and strictly \
           increasing, got %s"
          target
          (String.concat ", " (List.map (Printf.sprintf "%g") cuts))
  in
  let leveling =
    List.fold_left
      (fun acc (iface, prop, cuts) ->
        checked (iface ^ "." ^ prop) cuts (fun () ->
            Leveling.with_iface acc iface prop cuts))
      Leveling.empty !iface_levels
  in
  let leveling =
    List.fold_left
      (fun acc (target, cuts) ->
        checked target cuts (fun () ->
            match split_dotted target with
            | "link", res -> Leveling.with_link acc res cuts
            | "node", res -> Leveling.with_node acc res cuts
            | iface, prop -> Leveling.with_iface acc iface prop cuts))
      leveling !extra_levels
  in
  { topo = Option.map fst !network; app; leveling }

(* --------------------------------------------------------------------- *)
(* Printer                                                                *)
(* --------------------------------------------------------------------- *)

let tag_to_string = function
  | Model.Degradable -> "degradable"
  | Model.Upgradable -> "upgradable"
  | Model.Neither -> "neither"

let print_document ?topo (app : Model.app) leveling =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let cuts_for iface prop =
    List.find_map
      (fun (i, p, cuts) ->
        if String.equal i iface && String.equal p prop then Some cuts else None)
      (Leveling.iface_cutpoints leveling)
  in
  List.iter
    (fun (i : Model.iface) ->
      pf "interface %s {\n" i.Model.iface_name;
      List.iter
        (fun (p : Model.property) ->
          if p.Model.prop_default = 0. then
            pf "  property %s %s;\n" p.Model.prop_name (tag_to_string p.Model.prop_tag)
          else
            pf "  property %s = %g %s;\n" p.Model.prop_name p.Model.prop_default
              (tag_to_string p.Model.prop_tag))
        i.Model.properties;
      List.iter
        (fun (p, e) -> pf "  cross %s := %s;\n" p (Expr.to_string e))
        i.Model.cross_transforms;
      List.iter
        (fun (r, e) -> pf "  consume link.%s -= %s;\n" r (Expr.to_string e))
        i.Model.cross_consumes;
      List.iter
        (fun c -> pf "  condition %s;\n" (Expr.cond_to_string c))
        i.Model.cross_conditions;
      pf "  cost %s;\n" (Expr.to_string i.Model.cross_cost);
      List.iter
        (fun (p : Model.property) ->
          match cuts_for i.Model.iface_name p.Model.prop_name with
          | Some cuts when cuts <> [] ->
              pf "  levels %s: %s;\n" p.Model.prop_name
                (String.concat ", " (List.map (Printf.sprintf "%g") cuts))
          | _ -> ())
        i.Model.properties;
      pf "}\n\n")
    app.Model.interfaces;
  List.iter
    (fun (c : Model.component) ->
      pf "component %s {\n" c.Model.comp_name;
      if c.Model.requires <> [] then
        pf "  requires %s;\n" (String.concat ", " c.Model.requires);
      if c.Model.provides <> [] then
        pf "  provides %s;\n" (String.concat ", " c.Model.provides);
      List.iter (fun cd -> pf "  condition %s;\n" (Expr.cond_to_string cd)) c.Model.conditions;
      List.iter
        (fun (i, p, e) -> pf "  effect %s.%s := %s;\n" i p (Expr.to_string e))
        c.Model.effects;
      List.iter
        (fun (r, e) -> pf "  consume node.%s -= %s;\n" r (Expr.to_string e))
        c.Model.consumes;
      pf "  cost %s;\n" (Expr.to_string c.Model.place_cost);
      if not c.Model.placeable then pf "  anchored;\n";
      pf "}\n\n")
    app.Model.components;
  (match topo with
  | None -> ()
  | Some t ->
      pf "network {\n";
      Array.iter
        (fun (n : Topology.node) ->
          pf "  node %s%s;\n" n.Topology.node_name
            (String.concat ""
               (List.map (fun (r, v) -> Printf.sprintf " %s %g" r v) n.Topology.node_resources)))
        (Topology.nodes t);
      Array.iter
        (fun (l : Topology.link) ->
          let a, b = l.Topology.ends in
          pf "  link %s -- %s %s%s;\n"
            (Topology.get_node t a).Topology.node_name
            (Topology.get_node t b).Topology.node_name
            (match l.Topology.kind with Topology.Lan -> "lan" | Topology.Wan -> "wan")
            (String.concat ""
               (List.map (fun (r, v) -> Printf.sprintf " %s %g" r v) l.Topology.link_resources)))
        (Topology.links t);
      pf "}\n\n");
  let node_name id =
    match topo with
    | Some t -> (Topology.get_node t id).Topology.node_name
    | None -> Printf.sprintf "n%d" id
  in
  pf "deploy {\n";
  List.iter
    (fun (comp, node) -> pf "  place %s on %s;\n" comp (node_name node))
    app.Model.pre_placed;
  List.iter
    (fun g ->
      match g with
      | Model.Placed (comp, node) -> pf "  goal %s on %s;\n" comp (node_name node)
      | Model.Available (i, p, node, v) ->
          pf "  goal %s.%s >= %g on %s;\n" i p v (node_name node))
    app.Model.goals;
  pf "}\n";
  List.iter
    (fun (r, cuts) ->
      pf "\nlevels link.%s: %s;\n" r
        (String.concat ", " (List.map (Printf.sprintf "%g") cuts)))
    (Leveling.link_cutpoints leveling);
  List.iter
    (fun (r, cuts) ->
      pf "\nlevels node.%s: %s;\n" r
        (String.concat ", " (List.map (Printf.sprintf "%g") cuts)))
    (Leveling.node_cutpoints leveling);
  Buffer.contents buf

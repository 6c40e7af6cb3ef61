module I = Sekitei_util.Interval
module Deadline = Sekitei_util.Deadline
module Expr = Sekitei_expr.Expr
module Topology = Sekitei_network.Topology
module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Telemetry = Sekitei_telemetry.Telemetry

exception Compile_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* Every combination picking one element of each row, the first row
   varying slowest; no combination when a row is empty, one empty
   combination when there are no rows. *)
let product rows =
  let n = Array.length rows in
  let stride = Array.make (n + 1) 1 in
  for j = n - 1 downto 0 do
    stride.(j) <- stride.(j + 1) * Array.length rows.(j)
  done;
  Array.init stride.(0) (fun k ->
      Array.init n (fun j ->
          let row = rows.(j) in
          row.(k / stride.(j + 1) mod Array.length row)))

(* ------------------------------------------------------------------ *)
(* Goal preprocessing: Available goals become sink components          *)
(* ------------------------------------------------------------------ *)

let rewrite_goals (app : Model.app) =
  let counter = ref 0 in
  let extra_comps = ref [] in
  let restrictions = ref [] in
  let goals =
    List.map
      (fun g ->
        match g with
        | Model.Placed _ -> g
        | Model.Available (iface, prop, node, minv) ->
            incr counter;
            let name = Printf.sprintf "__goal%d_%s" !counter iface in
            let sink =
              Model.component ~requires:[ iface ]
                ~conditions:
                  [ Expr.Cmp (Expr.Ge, Expr.Var (Model.qualified iface prop),
                              Expr.Const minv) ]
                ~place_cost:(Expr.Const 0.) name
            in
            extra_comps := sink :: !extra_comps;
            restrictions := (name, node) :: !restrictions;
            Model.Placed (name, node))
      app.goals
  in
  ( { app with components = app.components @ List.rev !extra_comps; goals },
    !restrictions )

(* ------------------------------------------------------------------ *)
(* Resolved schemas                                                    *)
(* ------------------------------------------------------------------ *)

(* A formula variable resolved once per schema: where the environment of
   a level combination finds its value.  Grounding then evaluates
   [slot Expr.gen] formulas with array reads instead of splitting names
   and scanning association lists per combination. *)
type slot =
  | Level of int
      (* the combination's k-th interval: the input levels, then the
         checked site-resource levels *)
  | Cap of int  (* the site's k-th unleveled capacity, as a point *)
  | Full  (* a secondary property: unconstrained *)
  | Unbound of string  (* raises [Expr.Unbound_variable] when read *)

(* The interval environment of one site.  [cur] holds the combination
   being grounded; [caps] the site's unleveled capacities, [None] for a
   non-finite one, which has no point interval. *)
let slot_env cur caps = function
  | Level k -> cur.(k)
  | Cap k -> (
      match caps.(k) with Some ivl -> ivl | None -> raise I.Empty_interval)
  | Full -> I.full
  | Unbound v -> raise (Expr.Unbound_variable v)

let cap_point c = if Float.is_finite c then Some (I.point c) else None

(* Checked-level combinations of a site: each leveled resource's levels
   cut to [0, capacity]. *)
let checked_combos checked cap =
  product
    (Array.map
       (fun (r, lvls) ->
         let site = I.of_points [ 0.; cap r ] in
         Array.of_list
           (List.filter_map
              (fun ivl -> Option.map (fun x -> (r, x)) (I.inter ivl site))
              lvls))
       checked)

(* What a schema checks and prices at every level combination, with its
   variables resolved to slots: [first] input slots, then one per
   leveled resource of its site (the node of a placement, the link of a
   crossing). *)
type formulas = {
  first : int;
  checked_res : (string * I.t list) array;  (* leveled site resources *)
  cap_res : string array;  (* the other site resources read, by [Cap] slot *)
  conditions : slot Expr.cond_gen list;
  consumes : (string * slot Expr.gen) array;
  cost : slot Expr.gen;
}

(* Resolve a schema's formulas.  [site] names its site resources ("node"
   or "link") and [input] resolves every other variable.  The site
   resources a schema mentions are the ones it consumes and those its
   formulas read, [other_vars] being the variables of its formulas
   beyond these three (effects, transforms).  Only non-trivially leveled
   resources give checked-level choices; the others are read at the
   site's capacity and never runtime-checked.  [extra] resolves the
   schema's remaining formulas with the same resolver, before the
   capacity slots are listed. *)
let resolve_formulas ~site ~levels_of ~first ~input ~other_vars ~conditions
    ~consumes ~cost extra =
  let vars =
    List.concat
      [
        other_vars;
        List.concat_map Expr.cond_vars conditions;
        List.concat_map (fun (_, e) -> Expr.vars e) consumes;
        Expr.vars cost;
      ]
  in
  let checked =
    Array.of_list
      (List.filter_map
         (fun r ->
           match levels_of r with
           | [ single ] when I.equal single I.full -> None
           | lvls -> Some (r, lvls))
         (List.sort_uniq String.compare
            (List.map fst consumes
            @ List.filter_map
                (fun v ->
                  match Model.split_var v with
                  | p, r when String.equal p site -> Some r
                  | _ -> None)
                vars)))
  in
  let caps = ref [] in
  let site_slot r =
    match Array.find_index (fun (c, _) -> String.equal c r) checked with
    | Some j -> Level (first + j)
    | None -> (
        match List.assoc_opt r !caps with
        | Some k -> Cap k
        | None ->
            let k = List.length !caps in
            caps := (r, k) :: !caps;
            Cap k)
  in
  let resolve v =
    match Model.split_var v with
    | p, r when String.equal p site -> site_slot r
    | _ -> input v
  in
  let conditions = List.map (Expr.map_cond_vars resolve) conditions in
  let consumes =
    Array.of_list
      (List.map (fun (r, e) -> (r, Expr.map_vars resolve e)) consumes)
  in
  let cost = Expr.map_vars resolve cost in
  let x = extra resolve in
  ( {
      first;
      checked_res = checked;
      cap_res = Array.of_list (List.rev_map fst !caps);
      conditions;
      consumes;
      cost;
    },
    x )

(* A schema's formulas at one site, whose resource capacities [cap]
   gives.  The caller sets the input slots of [cur]; [admits checked]
   sets the checked slots and tells whether the conditions and the
   resource demands hold (a division by zero in a demand rules the
   combination out); [price ()] is the cost at the interval infima. *)
type site = {
  combos : (string * I.t) array array;  (* checked-level combinations *)
  cur : I.t array;
  env : slot -> I.t;
  admits : (string * I.t) array -> bool;
  price : unit -> float;
}

let bind f cap =
  let combos = checked_combos f.checked_res cap in
  let cur = Array.make (f.first + Array.length f.checked_res) I.full in
  let env = slot_env cur (Array.map (fun r -> cap_point (cap r)) f.cap_res) in
  let caps = Array.map (fun (r, _) -> cap r) f.consumes in
  let fits k =
    match Expr.eval_interval ~env (snd f.consumes.(k)) with
    | ivl -> I.lo ivl <= caps.(k) +. 1e-9
    | exception Division_by_zero -> false
  in
  let rec consumption_ok k =
    k = Array.length f.consumes || (fits k && consumption_ok (k + 1))
  in
  let admits checked =
    Array.iteri (fun j (_, ivl) -> cur.(f.first + j) <- ivl) checked;
    let conditions_ok = List.for_all (fun c -> Expr.sat ~env c) f.conditions in
    let consumption_ok = consumption_ok 0 in
    conditions_ok && consumption_ok
  in
  let price () = Expr.eval ~env:(fun v -> I.lo (env v)) f.cost in
  { combos; cur; env; admits; price }

(* One input-level combination of a placement schema. *)
type in_combo = {
  ivls : I.t array;  (* per required interface *)
  lvls : int array;
  in_levels : (int * I.t) array;
  suffix : string;  (* label suffix, e.g. "[T:1,I:1]" *)
}

(* A provided interface: its index and resolved primary effect, or the
   error grounding raises when it first needs them. *)
type output = Output of int * slot Expr.gen | Bad_output of exn

(* Everything about a placeable component that does not depend on the
   node it is placed on. *)
type place_schema = {
  req : int array;
  in_combos : in_combo array;
  outputs : output array;
  place : formulas;
}

(* The same for crossings of one interface; slot 0 is the stream's
   primary property. *)
type cross_schema = { transform : slot Expr.gen; cross : formulas }

(* One (input level, checked link levels) combination of a link that
   yields crossings, with its candidate output levels.  It holds for
   both directions of the link. *)
type crossing = {
  in_lvl : int;
  in_levels : (int * I.t) array;
  checked_link : (string * I.t) array;
  cost_lb : float;
  candidates : (int * (int * I.t) array) array;  (* out level, out_levels *)
}

(* ------------------------------------------------------------------ *)
(* Compilation proper                                                  *)
(* ------------------------------------------------------------------ *)

(* Incremental-recompilation hooks.  Grounding is organized in groups —
   one per (placeable component, node) and one per (interface, link,
   direction) — whose content depends only on the group's own site: node
   capacities for placements, link capacities and the (stable) endpoint
   names for crossings.  When a hook returns [Some acts], the group's
   actions are copied from a previous compilation (with freshly assigned
   sequential act_ids) instead of being re-grounded; cold compilation
   uses {!no_reuse}.  Groups are visited in a canonical order either way,
   so a recompile with every hook declining is byte-identical to a cold
   compile. *)
type reuse = {
  reuse_place : comp:int -> node:int -> Action.t list option;
  reuse_cross :
    iface:int -> link_id:int -> src:int -> dst:int -> Action.t list option;
}

let no_reuse =
  {
    reuse_place = (fun ~comp:_ ~node:_ -> None);
    reuse_cross = (fun ~iface:_ ~link_id:_ ~src:_ ~dst:_ -> None);
  }

let compile_with ~adjust ~telemetry ~deadline ~prune ~(reuse : reuse) topo
    (app0 : Model.app) leveling =
  let app, restrictions = rewrite_goals app0 in
  let ifaces = Array.of_list app.interfaces in
  let comps = Array.of_list app.components in
  let n_nodes = Topology.node_count topo in
  let iface_idx name =
    let rec go i =
      if i >= Array.length ifaces then fail "unknown interface %s" name
      else if String.equal ifaces.(i).Model.iface_name name then i
      else go (i + 1)
    in
    go 0
  in
  let comp_idx name =
    let rec go i =
      if i >= Array.length comps then fail "unknown component %s" name
      else if String.equal comps.(i).Model.comp_name name then i
      else go (i + 1)
    in
    go 0
  in
  let primary i = (Model.primary_property ifaces.(i)).Model.prop_name in
  let tag_of i = (Model.primary_property ifaces.(i)).Model.prop_tag in
  let iface_levels =
    Array.init (Array.length ifaces) (fun i ->
        Array.of_list
          (Leveling.iface_levels leveling ifaces.(i).Model.iface_name (primary i)))
  in
  let iface_tags = Array.init (Array.length ifaces) tag_of in
  let props =
    Prop.create ~n_comps:(Array.length comps) ~n_nodes
      ~levels_per_iface:(Array.map Array.length iface_levels)
  in
  let node_cap n r = try Topology.node_resource topo n r with Not_found -> 0. in
  let link_cap l r = try Topology.link_resource topo l r with Not_found -> 0. in

  let comp_allowed_node =
    Array.init (Array.length comps) (fun c ->
        List.assoc_opt comps.(c).Model.comp_name restrictions)
  in

  (* ---------------- initial state ---------------- *)
  let init = Array.make (Prop.count props) false in
  let init_consumed = ref [] in
  let sources = ref [] in
  List.iter
    (fun (comp_name, node) ->
      let c = comp_idx comp_name in
      let comp = comps.(c) in
      if comp.Model.requires <> [] then
        fail "pre-placed component %s has requirements" comp_name;
      let env v =
        match Model.split_var v with
        | "node", r -> node_cap node r
        | _ -> raise (Expr.Unbound_variable v)
      in
      List.iter
        (fun cond ->
          if not (Expr.holds ~env cond) then
            fail "pre-placed component %s violates its conditions on node %d"
              comp_name node)
        comp.Model.conditions;
      List.iter
        (fun (r, e) ->
          let amount = Expr.eval ~env e in
          if amount > node_cap node r +. 1e-9 then
            fail "pre-placed component %s exceeds %s on node %d" comp_name r node;
          init_consumed := (node, r, amount) :: !init_consumed)
        comp.Model.consumes;
      init.(Prop.placed_id props ~comp:c ~node) <- true;
      List.iter
        (fun prov ->
          let i = iface_idx prov in
          let prim = primary i in
          let value_of prop_name =
            match
              List.find_opt
                (fun (fi, fp, _) ->
                  String.equal fi prov && String.equal fp prop_name)
                comp.Model.effects
            with
            | Some (_, _, e) -> Some (Expr.eval ~env e)
            | None -> None
          in
          let v =
            match value_of prim with
            | Some v -> v
            | None -> fail "pre-placed %s sets no %s.%s" comp_name prov prim
          in
          let tag = iface_tags.(i) in
          let src_interval =
            match tag with
            | Model.Degradable -> I.of_points [ 0.; v ]
            | Model.Neither -> I.point v
            | Model.Upgradable ->
                if Float.is_finite v then I.make v Float.infinity else I.point v
          in
          let src_secondary =
            List.filter_map
              (fun (p : Model.property) ->
                if String.equal p.Model.prop_name prim then None
                else
                  Some
                    ( p.Model.prop_name,
                      Option.value (value_of p.Model.prop_name)
                        ~default:p.Model.prop_default ))
              ifaces.(i).Model.properties
          in
          sources :=
            { Problem.src_iface = i; src_node = node; src_interval; src_secondary }
            :: !sources;
          Array.iteri
            (fun lvl ivl ->
              let available =
                match tag with
                | Model.Degradable -> I.lo ivl <= v
                | Model.Neither -> I.mem v ivl
                | Model.Upgradable -> (not (I.is_point ivl)) && I.hi ivl > v
              in
              if available then
                init.(Prop.avail_id props ~iface:i ~node ~level:lvl) <- true)
            iface_levels.(i))
        comp.Model.provides)
    app.pre_placed;

  (* ---------------- action construction ---------------- *)
  let actions = ref [] in
  let next_id = ref 0 in
  let emit ~kind ~pre ~add ~add_closure ~cost_lb ~in_levels ~out_levels
      ~checked_node ~checked_link ~label =
    if cost_lb < 0. || Float.is_nan cost_lb then
      fail "negative cost bound for action %s" label;
    let cost_extra =
      match kind with
      | Action.Place { comp; node } ->
          adjust ~comp:comps.(comp).Model.comp_name ~node
      | Action.Cross _ -> 0.
    in
    (* Adjustments may discount, but never below zero total. *)
    let cost_extra = Float.max cost_extra (-.cost_lb) in
    let cost_lb = cost_lb +. cost_extra in
    actions :=
      {
        Action.act_id = !next_id;
        kind;
        pre;
        add;
        add_closure;
        cost_lb;
        cost_extra;
        in_levels;
        out_levels;
        checked_node;
        checked_link;
        label;
      }
      :: !actions;
    incr next_id
  in

  (* Adopt an action from a previous compilation verbatim, fresh id.  The
     record copy shares the pre/add/closure arrays with the old problem —
     they are immutable and proposition ids are stable across reuses. *)
  let emit_copy (a : Action.t) =
    actions := { a with Action.act_id = !next_id } :: !actions;
    incr next_id
  in

  (* The add-closure of one achieved availability: the levels it implies
     under its interface's tag, a contiguous, increasing id range.  Built
     once per proposition and shared by every action achieving it. *)
  let implied = Array.make (Prop.count props) [||] in
  let implied_closure i node level =
    let pid = Prop.avail_id props ~iface:i ~node ~level in
    if Array.length implied.(pid) = 0 then begin
      let lo, hi =
        match iface_tags.(i) with
        | Model.Degradable -> (0, level)
        | Model.Upgradable -> (level, Array.length iface_levels.(i) - 1)
        | Model.Neither -> (level, level)
      in
      let base = pid - level + lo in
      implied.(pid) <- Array.init (hi - lo + 1) (fun k -> base + k)
    end;
    implied.(pid)
  in
  (* Placed ids precede every availability id, so a placement's closure
     is its placed id, then its outputs' closures merged. *)
  let place_closure placed = function
    | [||] -> [| placed |]
    | [| c |] -> Array.append [| placed |] c
    | cs ->
        let all = Array.concat (Array.to_list cs) in
        Array.sort Int.compare all;
        let n = ref 0 in
        Array.iter
          (fun p ->
            if !n = 0 || all.(!n - 1) <> p then begin
              all.(!n) <- p;
              incr n
            end)
          all;
        Array.append [| placed |] (Array.sub all 0 !n)
  in
  let node_name n = (Topology.get_node topo n).Topology.node_name in

  (* Leveled grounding: everything from here to the [actions] array is
     schema replication over level assignments plus pruning — the
     "leveling" sub-span of compilation. *)
  let sp_leveling = Telemetry.begin_span telemetry "leveling" in

  (* ----- place actions ----- *)
  (* Node-independent part of a placement schema: required interfaces,
     input-level combinations and formulas with their variables resolved
     to slots, input levels first, then checked node levels. *)
  let place_schema (comp : Model.component) =
    let req = Array.of_list (List.map iface_idx comp.Model.requires) in
    let n_in = Array.length req in
    let input v =
      let iface_name, prop_name = Model.split_var v in
      let rec find k =
        if k = n_in then Unbound v
        else
          let i = req.(k) in
          if String.equal ifaces.(i).Model.iface_name iface_name then
            if String.equal prop_name (primary i) then Level k else Full
          else find (k + 1)
      in
      find 0
    in
    let output resolve prov =
      match iface_idx prov with
      | exception (Compile_error _ as e) -> Bad_output e
      | o -> (
          let prim = primary o in
          match
            List.find_opt
              (fun (fi, fp, _) -> String.equal fi prov && String.equal fp prim)
              comp.Model.effects
          with
          | Some (_, _, e) -> Output (o, Expr.map_vars resolve e)
          | None ->
              Bad_output
                (Compile_error
                   (Printf.sprintf "component %s sets no %s.%s"
                      comp.Model.comp_name prov prim)))
    in
    let place, outputs =
      resolve_formulas ~site:"node" ~levels_of:(Leveling.node_levels leveling)
        ~first:n_in ~input
        ~other_vars:
          (List.concat_map (fun (_, _, e) -> Expr.vars e) comp.Model.effects)
        ~conditions:comp.Model.conditions ~consumes:comp.Model.consumes
        ~cost:comp.Model.place_cost
        (fun resolve ->
          Array.of_list (List.map (output resolve) comp.Model.provides))
    in
    let in_combos =
      Array.map
        (fun combo ->
          {
            ivls = Array.map snd combo;
            lvls = Array.map fst combo;
            in_levels = Array.mapi (fun k (_, ivl) -> (req.(k), ivl)) combo;
            suffix =
              (if n_in = 0 then ""
               else
                 "["
                 ^ String.concat ","
                     (Array.to_list
                        (Array.mapi
                           (fun k (l, _) ->
                             ifaces.(req.(k)).Model.iface_name ^ ":"
                             ^ string_of_int l)
                           combo))
                 ^ "]");
          })
        (product
           (Array.map
              (fun i -> Array.mapi (fun l ivl -> (l, ivl)) iface_levels.(i))
              req))
    in
    { req; in_combos; outputs; place }
  in
  let ground_place c (comp : Model.component) (s : place_schema) node =
    let site = bind s.place (node_cap node) in
    let env = site.env in
    let kind = Action.Place { comp = c; node } in
    let placed = Prop.placed_id props ~comp:c ~node in
    Array.iter
      (fun ic ->
        Array.blit ic.ivls 0 site.cur 0 (Array.length ic.ivls);
        (* Shared by every action of this input combination on [node],
           built with the first. *)
        let pre_label = ref None in
        Array.iter
          (fun checked_node ->
            if site.admits checked_node then begin
              (* Output level candidates per provided interface. *)
              let out_choices =
                Array.map
                  (function
                    | Bad_output e -> raise e
                    | Output (o, effect) ->
                        let out_ivl = Expr.eval_interval ~env effect in
                        let cands = ref [] in
                        for l = Array.length iface_levels.(o) - 1 downto 0 do
                          match I.inter iface_levels.(o).(l) out_ivl with
                          | Some achieved -> cands := (o, l, achieved) :: !cands
                          | None -> ()
                        done;
                        Array.of_list !cands)
                  s.outputs
              in
              let out_combos = product out_choices in
              if Array.length out_combos > 0 then begin
                let cost_lb = site.price () in
                let pre, label =
                  match !pre_label with
                  | Some pl -> pl
                  | None ->
                      let pl =
                        ( Array.mapi
                            (fun k l ->
                              Prop.avail_id props ~iface:s.req.(k) ~node
                                ~level:l)
                            ic.lvls,
                          "place(" ^ comp.Model.comp_name ^ "," ^ node_name node
                          ^ ")" ^ ic.suffix )
                      in
                      pre_label := Some pl;
                      pl
                in
                Array.iter
                  (fun out_combo ->
                    emit ~kind ~pre
                      ~add:
                        (Array.append [| placed |]
                           (Array.map
                              (fun (o, l, _) ->
                                Prop.avail_id props ~iface:o ~node ~level:l)
                              out_combo))
                      ~add_closure:
                        (place_closure placed
                           (Array.map
                              (fun (o, l, _) -> implied_closure o node l)
                              out_combo))
                      ~cost_lb ~in_levels:ic.in_levels
                      ~out_levels:
                        (Array.map (fun (o, _, ivl) -> (o, ivl)) out_combo)
                      ~checked_node ~checked_link:[||] ~label)
                  out_combos
              end
            end)
          site.combos)
      s.in_combos
  in
  Array.iteri
    (fun c (comp : Model.component) ->
      if comp.Model.placeable then begin
        (* Built at the first placement grounded afresh: that is where
           an unknown required interface is reported. *)
        let schema = lazy (place_schema comp) in
        for node = 0 to n_nodes - 1 do
          let allowed =
            match comp_allowed_node.(c) with
            | Some only -> node = only
            | None -> true
          in
          if allowed then begin
            Deadline.guard deadline ~phase:"compile";
            match reuse.reuse_place ~comp:c ~node with
            | Some olds -> List.iter emit_copy olds
            | None -> ground_place c comp (Lazy.force schema) node
          end
        done
      end)
    comps;

  (* ----- cross actions ----- *)
  let cross_schema i (iface : Model.iface) =
    let prim = primary i in
    let input v =
      match Model.split_var v with
      | "", p -> if String.equal p prim then Level 0 else Full
      | _ -> Unbound v
    in
    let cross, transform =
      resolve_formulas ~site:"link" ~levels_of:(Leveling.link_levels leveling)
        ~first:1 ~input
        ~other_vars:
          (List.concat_map
             (fun (_, e) -> Expr.vars e)
             iface.Model.cross_transforms)
        ~conditions:iface.Model.cross_conditions
        ~consumes:iface.Model.cross_consumes ~cost:iface.Model.cross_cost
        (fun resolve ->
          match List.assoc_opt prim iface.Model.cross_transforms with
          | Some e -> Expr.map_vars resolve e
          | None -> Expr.Var (Level 0) (* unchanged by crossing *))
    in
    { transform; cross }
  in
  (* The crossings of one link, evaluated once for both directions:
     crossing formulas read only [link.*] and the stream's own
     properties.  [on_crossing] sees each one as soon as it is evaluated,
     so the first direction grounds in the same order as evaluating each
     direction separately would. *)
  let link_crossings i (s : cross_schema) lid =
    let site = bind s.cross (link_cap lid) in
    let levels = iface_levels.(i) in
    fun ~on_crossing ->
      let found = ref [] in
      Array.iteri
        (fun in_lvl in_ivl ->
          site.cur.(0) <- in_ivl;
          Array.iter
            (fun checked_link ->
              if site.admits checked_link then begin
                let out_ivl = Expr.eval_interval ~env:site.env s.transform in
                let candidates = ref [] in
                for lvl = Array.length levels - 1 downto 0 do
                  match I.inter levels.(lvl) out_ivl with
                  | None -> ()
                  | Some achieved ->
                      (* Dominance pruning for monotone streams: entering at
                         a higher level than what comes out is never
                         useful. *)
                      let dominated =
                        match iface_tags.(i) with
                        | Model.Degradable -> lvl < in_lvl
                        | Model.Upgradable -> lvl > in_lvl
                        | Model.Neither -> false
                      in
                      if not dominated then
                        candidates := (lvl, [| (i, achieved) |]) :: !candidates
                done;
                match !candidates with
                | [] -> ()
                | candidates ->
                    let x =
                      {
                        in_lvl;
                        in_levels = [| (i, in_ivl) |];
                        checked_link;
                        cost_lb = site.price ();
                        candidates = Array.of_list candidates;
                      }
                    in
                    on_crossing x;
                    found := x :: !found
              end)
            site.combos)
        levels;
      List.rev !found
  in
  let emit_crossings i (iface : Model.iface) lid (src, dst) =
    let kind = Action.Cross { iface = i; link = lid; src; dst } in
    let labels = Array.make (Array.length iface_levels.(i)) "" in
    fun x ->
      if labels.(x.in_lvl) = "" then
        labels.(x.in_lvl) <-
          "cross(" ^ iface.Model.iface_name ^ "," ^ node_name src ^ "->"
          ^ node_name dst ^ ")[" ^ string_of_int x.in_lvl ^ "]";
      let pre = [| Prop.avail_id props ~iface:i ~node:src ~level:x.in_lvl |] in
      Array.iter
        (fun (out_lvl, out_levels) ->
          emit ~kind ~pre
            ~add:[| Prop.avail_id props ~iface:i ~node:dst ~level:out_lvl |]
            ~add_closure:(implied_closure i dst out_lvl)
            ~cost_lb:x.cost_lb ~in_levels:x.in_levels ~out_levels
            ~checked_node:[||] ~checked_link:x.checked_link
            ~label:labels.(x.in_lvl))
        x.candidates
  in
  Array.iteri
    (fun i (iface : Model.iface) ->
      let schema = cross_schema i iface in
      Array.iter
        (fun (l : Topology.link) ->
          let lid = l.Topology.link_id in
          let a, b = l.Topology.ends in
          let evaluate = link_crossings i schema lid in
          let crossings = ref None in
          List.iter
            (fun (src, dst) ->
              Deadline.guard deadline ~phase:"compile";
              match reuse.reuse_cross ~iface:i ~link_id:lid ~src ~dst with
              | Some olds -> List.iter emit_copy olds
              | None -> (
                  let on_crossing = emit_crossings i iface lid (src, dst) in
                  match !crossings with
                  | Some xs -> List.iter on_crossing xs
                  | None -> crossings := Some (evaluate ~on_crossing)))
            [ (a, b); (b, a) ])
        (Topology.links topo))
    ifaces;

  let actions = Array.of_list (List.rev !actions) in
  ignore
    (Telemetry.end_span telemetry sp_leveling
       ~attrs:[ ("actions", Telemetry.Int (Array.length actions)) ]);

  (* Network-ignorant maximum achievable value per interface: source
     capacities pushed through every component effect to a fixpoint (the
     paper's greedy "maximum possible utilization").  Computed before the
     dead-action pruning below, which consumes it. *)
  let iface_max = Array.make (Array.length ifaces) Float.neg_infinity in
  List.iter
    (fun (s : Problem.source) ->
      iface_max.(s.src_iface) <- Float.max iface_max.(s.src_iface) (I.hi s.src_interval))
    !sources;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 2 * Array.length ifaces do
    changed := false;
    incr rounds;
    Array.iter
      (fun (comp : Model.component) ->
        let inputs_known =
          List.for_all
            (fun req -> iface_max.(iface_idx req) > Float.neg_infinity)
            comp.Model.requires
        in
        if comp.Model.placeable && inputs_known then
          List.iter
            (fun prov ->
              let o = iface_idx prov in
              let prim_o = primary o in
              match
                List.find_opt
                  (fun (fi, fp, _) -> String.equal fi prov && String.equal fp prim_o)
                  comp.Model.effects
              with
              | None -> ()
              | Some (_, _, e) -> (
                  let env v =
                    match Model.split_var v with
                    | "node", _ -> Float.infinity (* optimistic *)
                    | iface_name, prop_name -> (
                        let i = iface_idx iface_name in
                        if String.equal prop_name (primary i) then iface_max.(i)
                        else Float.infinity)
                  in
                  match Expr.eval ~env e with
                  | v ->
                      if v > iface_max.(o) +. 1e-12 then begin
                        iface_max.(o) <- v;
                        changed := true
                      end
                  | exception (Expr.Unbound_variable _ | Division_by_zero) -> ()))
            comp.Model.provides)
      comps
  done;
  (* A fixpoint still changing after the round bound indicates an
     amplifying effect cycle: the only sound finite answer is "unbounded". *)
  if !changed then
    Array.iteri
      (fun i v -> if v > Float.neg_infinity then iface_max.(i) <- Float.infinity)
      iface_max;
  let iface_max = Array.map (fun v -> Float.max v 0.) iface_max in

  (* ---------------- dead-action pruning ---------------- *)
  (* [iface_max] is the same admissible supply bound Regression replay
     seeds unknown streams with: a leveled action assuming an input level
     whose infimum exceeds it can never fire, and neither can an action
     whose preconditions only such actions could have produced (relaxed
     forward reachability over the survivors).  Pruning them here shrinks
     every downstream graph.  Survivors keep their relative order and are
     renumbered sequentially, so the result is exactly what grounding
     without the dead schemas would have produced. *)
  let ground_actions = actions in
  let actions, pruned_actions =
    if not prune then (actions, 0)
    else begin
      let n = Array.length actions in
      let live = Array.make n true in
      Array.iteri
        (fun k (a : Action.t) ->
          if
            Array.exists
              (fun (i, ivl) -> I.lo ivl > iface_max.(i))
              a.Action.in_levels
          then live.(k) <- false)
        actions;
      (* Worklist reachability: [missing.(k)] counts live action [k]'s
         preconditions not yet producible (with multiplicity), and
         [waiting] lists, per such proposition, the actions it blocks
         (a compressed index: proposition [p]'s run starts at
         [start.(p)]).  An action fires when its count reaches zero. *)
      let producible = Array.copy init in
      let missing = Array.make n 0 in
      let start = Array.make (Array.length init + 1) 0 in
      Array.iteri
        (fun k (a : Action.t) ->
          if live.(k) then
            Array.iter
              (fun p ->
                if not producible.(p) then begin
                  missing.(k) <- missing.(k) + 1;
                  start.(p + 1) <- start.(p + 1) + 1
                end)
              a.Action.pre)
        actions;
      for p = 1 to Array.length init do
        start.(p) <- start.(p) + start.(p - 1)
      done;
      let waiting = Array.make start.(Array.length init) 0 in
      let fill = Array.sub start 0 (Array.length init) in
      Array.iteri
        (fun k (a : Action.t) ->
          if live.(k) then
            Array.iter
              (fun p ->
                if not producible.(p) then begin
                  waiting.(fill.(p)) <- k;
                  fill.(p) <- fill.(p) + 1
                end)
              a.Action.pre)
        actions;
      let applied = Array.make n false in
      let queue = Array.make n 0 and head = ref 0 and tail = ref 0 in
      let push k =
        applied.(k) <- true;
        queue.(!tail) <- k;
        incr tail
      in
      Array.iteri (fun k m -> if live.(k) && m = 0 then push k) missing;
      while !head < !tail do
        let a = actions.(queue.(!head)) in
        incr head;
        Array.iter
          (fun p ->
            if not producible.(p) then begin
              producible.(p) <- true;
              for w = start.(p) to start.(p + 1) - 1 do
                let k = waiting.(w) in
                missing.(k) <- missing.(k) - 1;
                if missing.(k) = 0 then push k
              done
            end)
          a.Action.add_closure
      done;
      for k = 0 to n - 1 do
        if live.(k) && not applied.(k) then live.(k) <- false
      done;
      let survivors = ref [] in
      for k = n - 1 downto 0 do
        if live.(k) then survivors := actions.(k) :: !survivors
      done;
      match Array.of_list !survivors with
      | kept when Array.length kept = n -> (actions, 0)
      | kept ->
          Array.iteri
            (fun k a -> kept.(k) <- { a with Action.act_id = k })
            kept;
          (kept, n - Array.length kept)
    end
  in

  (* ---------------- supports ---------------- *)
  let supports = Array.make (Prop.count props) [] in
  (* Iterate in reverse so each support list ends up in ascending action
     id order (determinism). *)
  for k = Array.length actions - 1 downto 0 do
    let a = actions.(k) in
    Array.iter
      (fun pid -> supports.(pid) <- a.Action.act_id :: supports.(pid))
      a.Action.add_closure
  done;

  let goal_props =
    Array.of_list
      (List.map
         (function
           | Model.Placed (name, node) ->
               Prop.placed_id props ~comp:(comp_idx name) ~node
           | Model.Available _ -> assert false (* rewritten above *))
         app.goals)
  in

  {
    Problem.topo;
    app;
    ifaces;
    comps;
    iface_levels;
    iface_tags;
    props;
    actions;
    supports;
    init;
    init_consumed = !init_consumed;
    sources = List.rev !sources;
    goal_props;
    comp_allowed_node;
    iface_max;
    pruned_actions;
    (* Share the one array when pruning removed nothing. *)
    ground_actions =
      (if pruned_actions = 0 then actions else ground_actions);
  }

let no_adjust ~comp:_ ~node:_ = 0.

let compile ?(adjust = no_adjust) ?(telemetry = Telemetry.null)
    ?(deadline = Deadline.none) ?(prune = true) topo app leveling =
  compile_with ~adjust ~telemetry ~deadline ~prune ~reuse:no_reuse topo app
    leveling

(* Incremental recompilation after a topology delta.  The old problem's
   actions are indexed by grounding group — (comp, node) for placements,
   (iface, link id, src, dst) for crossings — and groups whose site the
   delta did not touch are copied instead of re-grounded.  Link ids are
   stable across every Mutate operation, so the crossing key needs no
   translation: a surviving link's group is found under the same id it
   always had, and a tombstoned link's group is simply never asked for
   (the new topology's live view no longer contains it).  A copied group
   is exactly what fresh grounding would produce: placement groups
   depend only on their node's capacities, crossing groups only on their
   link's capacities and the endpoint names, all unchanged at untouched
   sites (and [adjust] must be the same function that compiled [old] —
   {!Session} fixes it per session).  Because {!compile_with} walks
   groups in the canonical cold order and assigns sequential act_ids, the
   result is structurally identical to a cold [compile] of the mutated
   topology, just cheaper. *)
let recompile ?(adjust = no_adjust) ?(telemetry = Telemetry.null)
    ~(old : Problem.t) ~node_touched ~link_touched topo app leveling =
  (* Reuse groups are built from the *pre-prune* ground set: deadness is
     a global property (it flows through [iface_max] and the relaxed
     reachability cascade), so a delta at one site can revive an action
     pruned at an untouched one.  Serving the full ground groups keeps
     every candidate on the table, and the fresh compile's own prune
     pass re-proves deadness over the assembled set — both the kill and
     the revive direction land exactly where a cold compile would. *)
  let place_groups = Hashtbl.create 256 in
  let cross_groups = Hashtbl.create 256 in
  let push tbl key a =
    Hashtbl.replace tbl key
      (a :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
  in
  Array.iter
    (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Place { comp; node } -> push place_groups (comp, node) a
      | Action.Cross { iface; link; src; dst } ->
          push cross_groups (iface, link, src, dst) a)
    old.Problem.ground_actions;
  (* Restore original emission order within each group. *)
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) place_groups;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) cross_groups;
  let reused = ref 0 in
  let serve olds =
    reused := !reused + List.length olds;
    Some olds
  in
  let reuse =
    {
      reuse_place =
        (fun ~comp ~node ->
          if node_touched node then None
          else
            match Hashtbl.find_opt place_groups (comp, node) with
            | Some olds -> serve olds
            | None -> None);
      reuse_cross =
        (fun ~iface ~link_id ~src ~dst ->
          if link_touched link_id || node_touched src || node_touched dst then
            None
          else
            match Hashtbl.find_opt cross_groups (iface, link_id, src, dst) with
            | Some olds -> serve olds
            | None -> None);
    }
  in
  let pb =
    compile_with ~adjust ~telemetry ~deadline:Deadline.none ~prune:true ~reuse
      topo app leveling
  in
  (* Invalidation is counted against the ground set the groups serve. *)
  (pb, Array.length old.Problem.ground_actions - !reused)

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
  reads : string array;  (* every site resource the formulas read *)
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
  let reads =
    List.sort_uniq String.compare
      (List.map fst consumes
      @ List.filter_map
          (fun v ->
            match Model.split_var v with
            | p, r when String.equal p site -> Some r
            | _ -> None)
          vars)
  in
  let checked =
    Array.of_list
      (List.filter_map
         (fun r ->
           match levels_of r with
           | [ single ] when I.equal single I.full -> None
           | lvls -> Some (r, lvls))
         reads)
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
      reads = Array.of_list reads;
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

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Site capacities compared bit for bit: two sites whose capacities
   agree on every resource a schema reads ground it alike. *)
module Sites = Hashtbl.Make (struct
  type t = float array

  let equal a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

  let hash = Hashtbl.hash
end)

(* One input-level combination of a schema. *)
type in_combo = {
  ivls : I.t array;  (* per input interface *)
  lvls : int array;
  in_levels : (int * I.t) array;
  suffix : string;  (* label suffix: "[T:1,I:1]" placing, "[1]" crossing *)
}

(* An output interface: its index and resolved primary value, or the
   error grounding raises when it first needs them. *)
type output = Output of int * slot Expr.gen | Bad_output of exn

(* One admitted (input levels, checked site levels) combination at a
   class of sites: its checked levels, its cost bound and its
   output-level choices, one action each. *)
type admitted = {
  checked : (string * I.t) array;
  cost_lb : float;
  outs : (int * int * I.t) array array;  (* (interface, level, achieved) *)
  out_levels : (int * I.t) array array;  (* per choice, the action's *)
}

(* Everything about a placement schema (per placeable component) or a
   crossing schema (per interface) that does not depend on its site.  A
   crossing's one input and one output are its stream.  [memo] holds
   what the schema yields at each class of sites met so far: the input
   combinations with an admitted combination, in grounding order. *)
type schema = {
  req : int array;  (* input interfaces *)
  in_combos : in_combo array;
  outputs : output array;
  formulas : formulas;
  keep : in_combo -> int -> bool;  (* whether an output level is emitted *)
  memo : (in_combo * admitted list) list Sites.t;
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
  let emit ~kind ~pre ~add ~add_closure ~cost_lb ~extra ~in_levels ~out_levels
      ~checked_node ~checked_link ~label =
    (* Adjustments may discount, but never below zero total. *)
    let cost_extra = Float.max extra (-.cost_lb) in
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

  (* Every input-level combination of the interfaces [req], the first
     varying slowest, labelled by [suffix]. *)
  let in_combos req ~suffix =
    Array.map
      (fun combo ->
        {
          ivls = Array.map snd combo;
          lvls = Array.map fst combo;
          in_levels = Array.mapi (fun k (_, ivl) -> (req.(k), ivl)) combo;
          suffix = suffix combo;
        })
      (product
         (Array.map
            (fun i -> Array.mapi (fun l ivl -> (l, ivl)) iface_levels.(i))
            req))
  in

  (* What schema [s] yields at one site, whose formulas [site] binds:
     for each input combination, the checked-level combinations whose
     conditions and demands hold and that reach some output level.
     [prefix] starts the labels of the site's actions, for the error a
     negative cost bound raises. *)
  let evaluate s (site : site) ~prefix =
    let admit ic acc checked =
      if not (site.admits checked) then acc
      else
        let choices =
          product
            (Array.map
               (function
                 | Bad_output e -> raise e
                 | Output (o, effect) ->
                     let out_ivl = Expr.eval_interval ~env:site.env effect in
                     let levels = iface_levels.(o) in
                     let cands = ref [] in
                     for l = Array.length levels - 1 downto 0 do
                       match I.inter levels.(l) out_ivl with
                       | Some achieved when s.keep ic l ->
                           cands := (o, l, achieved) :: !cands
                       | _ -> ()
                     done;
                     Array.of_list !cands)
               s.outputs)
        in
        if Array.length choices = 0 then acc
        else begin
          let cost_lb = site.price () in
          if cost_lb < 0. || Float.is_nan cost_lb then
            fail "negative cost bound for action %s%s" prefix ic.suffix;
          let out_levels =
            Array.map (Array.map (fun (o, _, ivl) -> (o, ivl))) choices
          in
          { checked; cost_lb; outs = choices; out_levels } :: acc
        end
    in
    List.rev
      (Array.fold_left
         (fun groups ic ->
           Array.blit ic.ivls 0 site.cur 0 (Array.length ic.ivls);
           match Array.fold_left (admit ic) [] site.combos with
           | [] -> groups
           | admitted -> (ic, List.rev admitted) :: groups)
         [] s.in_combos)
  in
  (* The yields of [s] at the site whose capacities [cap] gives.  The
     formulas read the site only through [cap] of the resources in
     [reads], so each schema is evaluated once per distinct capacities
     of those: on a network whose nodes, or links, agree in them, once
     per compilation, and a link's two directions always share one
     evaluation. *)
  let yields s cap ~prefix =
    let key = Array.map cap s.formulas.reads in
    match Sites.find_opt s.memo key with
    | Some y -> y
    | None ->
        let y = evaluate s (bind s.formulas cap) ~prefix in
        Sites.add s.memo key y;
        y
  in
  (* Emit a site's actions from the yields of its class.  Only what
     names the site is built here: each input combination's
     preconditions, read at node [at], and label, shared by its actions,
     then [act ~pre ~label ic a k] emits output choice [k] of admitted
     combination [a]. *)
  let emit_site s ~at ~prefix groups act =
    List.iter
      (fun (ic, admitted) ->
        let pre =
          Array.mapi
            (fun k l -> Prop.avail_id props ~iface:s.req.(k) ~node:at ~level:l)
            ic.lvls
        in
        let label = prefix ^ ic.suffix in
        List.iter
          (fun a ->
            for k = 0 to Array.length a.outs - 1 do
              act ~pre ~label ic a k
            done)
          admitted)
      groups
  in

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
    let formulas, outputs =
      resolve_formulas ~site:"node" ~levels_of:(Leveling.node_levels leveling)
        ~first:n_in ~input
        ~other_vars:
          (List.concat_map (fun (_, _, e) -> Expr.vars e) comp.Model.effects)
        ~conditions:comp.Model.conditions ~consumes:comp.Model.consumes
        ~cost:comp.Model.place_cost
        (fun resolve ->
          Array.of_list (List.map (output resolve) comp.Model.provides))
    in
    let suffix combo =
      if n_in = 0 then ""
      else
        "["
        ^ String.concat ","
            (Array.to_list
               (Array.mapi
                  (fun k (l, _) ->
                    ifaces.(req.(k)).Model.iface_name ^ ":" ^ string_of_int l)
                  combo))
        ^ "]"
    in
    {
      req;
      in_combos = in_combos req ~suffix;
      outputs;
      formulas;
      keep = (fun _ _ -> true);
      memo = Sites.create 8;
    }
  in
  let ground_place c (comp : Model.component) s node =
    let prefix = "place(" ^ comp.Model.comp_name ^ "," ^ node_name node ^ ")" in
    match yields s (node_cap node) ~prefix with
    | [] -> ()
    | groups ->
        let kind = Action.Place { comp = c; node } in
        let placed = Prop.placed_id props ~comp:c ~node in
        let extra = adjust ~comp:comp.Model.comp_name ~node in
        emit_site s ~at:node ~prefix groups (fun ~pre ~label ic a k ->
            let outs = a.outs.(k) in
            let add = Array.make (1 + Array.length outs) placed in
            for j = 0 to Array.length outs - 1 do
              let o, l, _ = outs.(j) in
              add.(j + 1) <- Prop.avail_id props ~iface:o ~node ~level:l
            done;
            emit ~kind ~pre ~add
              ~add_closure:
                (place_closure placed
                   (Array.map (fun (o, l, _) -> implied_closure o node l) outs))
              ~cost_lb:a.cost_lb ~extra ~in_levels:ic.in_levels
              ~out_levels:a.out_levels.(k) ~checked_node:a.checked
              ~checked_link:[||] ~label)
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
  (* A crossing's formulas read only [link.*] and the stream's own
     properties: slot 0 is its primary property. *)
  let cross_schema i (iface : Model.iface) =
    let prim = primary i in
    let input v =
      match Model.split_var v with
      | "", p -> if String.equal p prim then Level 0 else Full
      | _ -> Unbound v
    in
    let formulas, transform =
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
    let req = [| i |] in
    {
      req;
      in_combos =
        in_combos req ~suffix:(fun combo ->
            "[" ^ string_of_int (fst combo.(0)) ^ "]");
      outputs = [| Output (i, transform) |];
      formulas;
      (* Dominance pruning for monotone streams: entering at a higher
         level than what comes out is never useful. *)
      keep =
        (match iface_tags.(i) with
        | Model.Degradable -> fun ic l -> l >= ic.lvls.(0)
        | Model.Upgradable -> fun ic l -> l <= ic.lvls.(0)
        | Model.Neither -> fun _ _ -> true);
      memo = Sites.create 8;
    }
  in
  let ground_cross i (iface : Model.iface) s lid src dst =
    let prefix =
      "cross(" ^ iface.Model.iface_name ^ "," ^ node_name src ^ "->"
      ^ node_name dst ^ ")"
    in
    let groups = yields s (link_cap lid) ~prefix in
    let kind = Action.Cross { iface = i; link = lid; src; dst } in
    emit_site s ~at:src ~prefix groups (fun ~pre ~label ic a k ->
        let o, l, _ = a.outs.(k).(0) in
        emit ~kind ~pre
          ~add:[| Prop.avail_id props ~iface:o ~node:dst ~level:l |]
          ~add_closure:(implied_closure o dst l) ~cost_lb:a.cost_lb ~extra:0.
          ~in_levels:ic.in_levels ~out_levels:a.out_levels.(k)
          ~checked_node:[||] ~checked_link:a.checked ~label)
  in
  Array.iteri
    (fun i (iface : Model.iface) ->
      let s = cross_schema i iface in
      Array.iter
        (fun (l : Topology.link) ->
          let lid = l.Topology.link_id in
          let direction src dst =
            Deadline.guard deadline ~phase:"compile";
            match reuse.reuse_cross ~iface:i ~link_id:lid ~src ~dst with
            | Some olds -> List.iter emit_copy olds
            | None -> ground_cross i iface s lid src dst
          in
          let a, b = l.Topology.ends in
          direction a b;
          direction b a)
        (Topology.links topo))
    ifaces;

  (* An array of more than 256 actions is allocated in the major heap,
     and [Array.of_list] fills it from the list's young head, so it
     first empties the minor heap: a compilation of that many actions
     ends with a minor collection.  It stays on purpose: filling a
     pre-sized array from a static placeholder skips it here only to
     leave a fuller minor heap to whatever runs next, usually a warm
     re-plan's search, and no session-churn measurement has shown that
     move to be free (EXPERIMENTS.md, "Grounding once per class of
     sites"). *)
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
      (* The per-action loops are [for] loops: a closure over the action
         would be allocated once per action. *)
      let live = Array.make n true in
      for k = 0 to n - 1 do
        let in_levels = actions.(k).Action.in_levels in
        for j = 0 to Array.length in_levels - 1 do
          let i, ivl = in_levels.(j) in
          if I.lo ivl > iface_max.(i) then live.(k) <- false
        done
      done;
      (* Worklist reachability: [missing.(k)] counts live action [k]'s
         preconditions not yet producible (with multiplicity), and
         [waiting] lists, per such proposition, the actions it blocks
         (a compressed index: proposition [p]'s run starts at
         [start.(p)]).  An action fires when its count reaches zero. *)
      let producible = Array.copy init in
      let missing = Array.make n 0 in
      let start = Array.make (Array.length init + 1) 0 in
      for k = 0 to n - 1 do
        let pre = actions.(k).Action.pre in
        if live.(k) then
          for j = 0 to Array.length pre - 1 do
            let p = pre.(j) in
            if not producible.(p) then begin
              missing.(k) <- missing.(k) + 1;
              start.(p + 1) <- start.(p + 1) + 1
            end
          done
      done;
      for p = 1 to Array.length init do
        start.(p) <- start.(p) + start.(p - 1)
      done;
      let waiting = Array.make start.(Array.length init) 0 in
      let fill = Array.sub start 0 (Array.length init) in
      for k = 0 to n - 1 do
        let pre = actions.(k).Action.pre in
        if live.(k) then
          for j = 0 to Array.length pre - 1 do
            let p = pre.(j) in
            if not producible.(p) then begin
              waiting.(fill.(p)) <- k;
              fill.(p) <- fill.(p) + 1
            end
          done
      done;
      let applied = Array.make n false in
      let queue = Array.make n 0 and head = ref 0 and tail = ref 0 in
      let push k =
        applied.(k) <- true;
        queue.(!tail) <- k;
        incr tail
      in
      Array.iteri (fun k m -> if live.(k) && m = 0 then push k) missing;
      while !head < !tail do
        let closure = actions.(queue.(!head)).Action.add_closure in
        incr head;
        for j = 0 to Array.length closure - 1 do
          let p = closure.(j) in
          if not producible.(p) then begin
            producible.(p) <- true;
            for w = start.(p) to start.(p + 1) - 1 do
              let k = waiting.(w) in
              missing.(k) <- missing.(k) - 1;
              if missing.(k) = 0 then push k
            done
          end
        done
      done;
      (* The survivors are the applied actions, each queued once. *)
      if !tail = n then (actions, 0)
      else begin
        let survivors = ref [] in
        for k = n - 1 downto 0 do
          if applied.(k) then survivors := actions.(k) :: !survivors
        done;
        let kept = Array.of_list !survivors in
        Array.iteri (fun k a -> kept.(k) <- { a with Action.act_id = k }) kept;
        (kept, n - Array.length kept)
      end
    end
  in

  (* ---------------- supports ---------------- *)
  let supports = Array.make (Prop.count props) [] in
  (* Iterate in reverse so each support list ends up in ascending action
     id order (determinism). *)
  for k = Array.length actions - 1 downto 0 do
    let a = actions.(k) in
    for j = 0 to Array.length a.Action.add_closure - 1 do
      let pid = a.Action.add_closure.(j) in
      supports.(pid) <- a.Action.act_id :: supports.(pid)
    done
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
    ground_actions;
  }

let no_adjust ~comp:_ ~node:_ = 0.

let compile ?(adjust = no_adjust) ?(telemetry = Telemetry.null)
    ?(deadline = Deadline.none) ?(prune = true) topo app leveling =
  compile_with ~adjust ~telemetry ~deadline ~prune ~reuse:no_reuse topo app
    leveling

(* Incremental recompilation after a topology change.  The old problem's
   actions are indexed by grounding group — (comp, node) for placements,
   (iface, link id, src, dst) for crossings — and a group whose site
   reads the same capacities in [old.topo] and [topo] is copied instead
   of re-grounded.  That copy is exactly what fresh grounding would
   produce: a placement group reads only its node's capacities, and a
   crossing group only its link's ([cross_schema] resolves a [node.*]
   variable to [Unbound]) and the endpoint names, which never change
   ([adjust] must be the same function that compiled [old] —
   {!Session} fixes it per session).  Link ids are stable across every
   Mutate operation, so a surviving link's group is found under the id
   it always had, and a tombstoned link's group is never asked for.
   Because {!compile_with} walks groups in the canonical cold order and
   assigns sequential act_ids, the result is structurally identical to
   a cold [compile] of [topo], just cheaper. *)
let recompile ?(adjust = no_adjust) ?(telemetry = Telemetry.null)
    ~(old : Problem.t) topo app leveling =
  (* Reuse groups are built from the *pre-prune* ground set: deadness is
     a global property (it flows through [iface_max] and the relaxed
     reachability cascade), so a change at one site can revive an action
     pruned at an unchanged one.  Serving the full ground groups keeps
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
  (* One flag per site, worked out before grounding: whether each of its
     resources reads, as grounding reads it (the first binding), the
     same bits in both topologies.  [Mutate] moves a set resource to the
     front of its list, so the lists are compared name by name, not
     position by position; a site [Mutate] left alone shares its list,
     and [==] settles it. *)
  let same_reads a b =
    let agree x y =
      List.for_all
        (fun (r, _) ->
          match (List.assoc_opt r x, List.assoc_opt r y) with
          | Some v, Some w -> same_bits v w
          | _ -> false)
        x
    in
    a == b || (agree a b && agree b a)
  in
  let old_topo = old.Problem.topo in
  let node_same =
    Array.init (Topology.node_count topo) (fun n ->
        same_reads (Topology.get_node old_topo n).Topology.node_resources
          (Topology.get_node topo n).Topology.node_resources)
  in
  let link_same = Array.make (Topology.link_id_bound topo) false in
  Array.iter
    (fun (l : Topology.link) ->
      let id = l.Topology.link_id in
      link_same.(id) <-
        Topology.link_is_live old_topo id
        && same_reads (Topology.get_link old_topo id).Topology.link_resources
             l.Topology.link_resources)
    (Topology.links topo);
  let reused = ref 0 in
  let serve tbl key =
    match Hashtbl.find_opt tbl key with
    | Some olds ->
        reused := !reused + List.length olds;
        Some olds
    | None -> None
  in
  let reuse =
    {
      reuse_place =
        (fun ~comp ~node ->
          if node_same.(node) then serve place_groups (comp, node) else None);
      reuse_cross =
        (fun ~iface ~link_id ~src ~dst ->
          if link_same.(link_id) then
            serve cross_groups (iface, link_id, src, dst)
          else None);
    }
  in
  let pb =
    compile_with ~adjust ~telemetry ~deadline:Deadline.none ~prune:true ~reuse
      topo app leveling
  in
  (* Invalidation is counted against the ground set the groups serve. *)
  (pb, Array.length old.Problem.ground_actions - !reused)

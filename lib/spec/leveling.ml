module I = Sekitei_util.Interval
module Expr = Sekitei_expr.Expr

type t = {
  iface : ((string * string) * float list) list;
  link : (string * float list) list;
  node : (string * float list) list;
}

let empty = { iface = []; link = []; node = [] }

let check_cuts cuts =
  ignore (I.of_cutpoints cuts);
  cuts

let with_iface t iface prop cuts =
  let key = (iface, prop) in
  { t with iface = (key, check_cuts cuts) :: List.remove_assoc key t.iface }

let with_link t res cuts =
  { t with link = (res, check_cuts cuts) :: List.remove_assoc res t.link }

let with_node t res cuts =
  { t with node = (res, check_cuts cuts) :: List.remove_assoc res t.node }

let levels_of cuts = I.of_cutpoints (Option.value cuts ~default:[])
let iface_levels t iface prop = levels_of (List.assoc_opt (iface, prop) t.iface)
let link_levels t res = levels_of (List.assoc_opt res t.link)
let node_levels t res = levels_of (List.assoc_opt res t.node)

let is_trivial t = t.iface = [] && t.link = [] && t.node = []

let iface_cutpoints t = List.map (fun ((i, p), c) -> (i, p, c)) t.iface
let link_cutpoints t = t.link
let node_cutpoints t = t.node

(* --------------------------------------------------------------------- *)
(* Cutpoint propagation                                                   *)
(* --------------------------------------------------------------------- *)

let dedupe_sorted cuts =
  let sorted = List.sort_uniq compare cuts in
  List.filter (fun c -> c > 0. && Float.is_finite c) sorted

let propagate (app : Model.app) t =
  (* Map from (iface, prop) to known cutpoints; grows to a fixpoint. *)
  let table = Hashtbl.create 16 in
  List.iter (fun (key, cuts) -> Hashtbl.replace table key cuts) t.iface;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 100 do
    changed := false;
    incr rounds;
    List.iter
      (fun (c : Model.component) ->
        (* A component transfers cutpoints when every input property its
           effects mention is already leveled; cutpoints combine
           index-wise (proportional levels share indices). *)
        List.iter
          (fun (out_iface, out_prop, expr) ->
            let key = (out_iface, out_prop) in
            if not (Hashtbl.mem table key) then begin
              let input_vars = Expr.vars expr in
              let resolvable =
                input_vars <> []
                && List.for_all
                     (fun v ->
                       match Model.split_var v with
                       | "", _ -> false
                       | key -> Hashtbl.mem table key)
                     input_vars
              in
              if resolvable then begin
                let cut_count =
                  List.fold_left
                    (fun acc v ->
                      match Model.split_var v with
                      | "", _ -> acc
                      | key -> min acc (List.length (Hashtbl.find table key)))
                    max_int input_vars
                in
                if cut_count > 0 && cut_count < max_int then begin
                  let cuts =
                    List.init cut_count (fun idx ->
                        let env v =
                          match Model.split_var v with
                          | "", _ -> raise (Expr.Unbound_variable v)
                          | key -> List.nth (Hashtbl.find table key) idx
                        in
                        Expr.eval ~env expr)
                  in
                  let cuts = dedupe_sorted cuts in
                  if cuts <> [] then begin
                    Hashtbl.replace table key cuts;
                    changed := true
                  end
                end
              end
            end)
          c.effects)
      app.components
  done;
  let iface =
    Hashtbl.fold (fun key cuts acc -> (key, cuts) :: acc) table []
    |> List.sort compare
  in
  { t with iface }

(* --------------------------------------------------------------------- *)
(* Cutpoint suggestion                                                    *)
(* --------------------------------------------------------------------- *)

(* Constants demanded of a variable by a condition: c for [v >= c] or
   [c <= v] shapes (and their strict variants), with constant-only
   opposite sides. *)
let demanded_constants cond v =
  let const_of e =
    if Expr.vars e = [] then
      match Expr.eval ~env:(fun x -> raise (Expr.Unbound_variable x)) e with
      | c -> Some c
      | exception (Expr.Unbound_variable _ | Division_by_zero) -> None
    else None
  in
  let rec go acc = function
    | Expr.True -> acc
    | Expr.Cmp ((Expr.Ge | Expr.Gt), Expr.Var v', rhs) when String.equal v v'
      -> (match const_of rhs with Some c -> c :: acc | None -> acc)
    | Expr.Cmp ((Expr.Le | Expr.Lt), lhs, Expr.Var v') when String.equal v v'
      -> (match const_of lhs with Some c -> c :: acc | None -> acc)
    | Expr.Cmp _ -> acc
    | Expr.And (a, b) | Expr.Or (a, b) -> go (go acc a) b
  in
  go [] cond

let suggest ?(expansion = 1.1) ?(intermediate = 1) (app : Model.app) =
  if expansion <= 1. then invalid_arg "Leveling.suggest: expansion must be > 1";
  if intermediate < 0 then invalid_arg "Leveling.suggest: negative intermediate";
  (* Supply per interface primary property: constant effects of pre-placed
     providers. *)
  let supply = Hashtbl.create 8 in
  List.iter
    (fun (comp_name, _) ->
      match
        List.find_opt
          (fun (c : Model.component) -> String.equal c.Model.comp_name comp_name)
          app.components
      with
      | None -> ()
      | Some comp ->
          List.iter
            (fun (iface, prop, e) ->
              if Expr.vars e = [] then
                match Expr.eval ~env:(fun x -> raise (Expr.Unbound_variable x)) e with
                | v ->
                    let key = (iface, prop) in
                    let prev = Option.value (Hashtbl.find_opt supply key) ~default:0. in
                    Hashtbl.replace supply key (Float.max prev v)
                | exception (Expr.Unbound_variable _ | Division_by_zero) -> ())
            comp.Model.effects)
    app.pre_placed;
  (* Demands per (iface, prop) from component conditions and goals. *)
  let demands = Hashtbl.create 8 in
  let record iface prop c =
    if c > 0. && Float.is_finite c then begin
      let key = (iface, prop) in
      let prev = Option.value (Hashtbl.find_opt demands key) ~default:[] in
      Hashtbl.replace demands key (c :: prev)
    end
  in
  List.iter
    (fun (c : Model.component) ->
      List.iter
        (fun cond ->
          List.iter
            (fun v ->
              match Model.split_var v with
              | ("" | "node"), _ -> ()
              | iface, prop ->
                  List.iter (record iface prop) (demanded_constants cond v))
            (Expr.cond_vars cond))
        c.Model.conditions)
    app.components;
  List.iter
    (fun g ->
      match g with
      | Model.Available (iface, prop, _, minv) -> record iface prop minv
      | Model.Placed _ -> ())
    app.goals;
  (* Cutpoints: demands, a band just above each demand, geometric fillers
     up to the supply, and the supply. *)
  let seeded =
    Hashtbl.fold
      (fun (iface, prop) ds acc ->
        let d_max = List.fold_left Float.max 0. ds in
        let s = Option.value (Hashtbl.find_opt supply (iface, prop)) ~default:0. in
        let ladder =
          if s > d_max *. expansion then
            List.init intermediate (fun i ->
                let frac = float_of_int (i + 1) /. float_of_int (intermediate + 1) in
                d_max *. ((s /. d_max) ** frac))
          else []
        in
        let cuts =
          dedupe_sorted
            (ds @ List.map (fun d -> d *. expansion) ds @ ladder
            @ (if s > 0. then [ s ] else []))
        in
        if cuts = [] then acc else (iface, prop, cuts) :: acc)
      demands []
  in
  let base =
    List.fold_left
      (fun acc (iface, prop, cuts) -> with_iface acc iface prop cuts)
      empty seeded
  in
  propagate app base

(* --------------------------------------------------------------------- *)
(* Tag analysis                                                           *)
(* --------------------------------------------------------------------- *)

let analyze_tags (app : Model.app) =
  let verdicts = ref [] in
  List.iter
    (fun (i : Model.iface) ->
      List.iter
        (fun (p : Model.property) ->
          let v = Model.qualified i.iface_name p.prop_name in
          (* Collect every condition and effect across components that
             mentions this property. *)
          let conds =
            List.concat_map
              (fun (c : Model.component) ->
                List.filter (fun cd -> List.mem v (Expr.cond_vars cd)) c.conditions)
              app.components
          in
          let effects =
            List.concat_map
              (fun (c : Model.component) ->
                List.filter_map
                  (fun (_, _, e) ->
                    if List.mem v (Expr.vars e) then Some e else None)
                  c.effects)
              app.components
          in
          let consumption =
            List.concat_map
              (fun (c : Model.component) ->
                List.filter_map
                  (fun (_, e) ->
                    if List.mem v (Expr.vars e) then Some e else None)
                  c.consumes)
              app.components
          in
          let all_effects_monotone =
            List.for_all
              (fun e ->
                match Expr.monotonicity e v with
                | Expr.Increasing | Expr.Constant -> true
                | Expr.Decreasing | Expr.Unknown -> false)
              (effects @ consumption)
          in
          let cond_easiness = List.map (fun c -> Expr.easier_when_lower c v) conds in
          let tag =
            if
              all_effects_monotone
              && List.for_all (fun x -> x = Some true) cond_easiness
            then Some Model.Degradable
            else if
              all_effects_monotone
              && conds <> []
              && List.for_all (fun x -> x = Some false) cond_easiness
            then Some Model.Upgradable
            else None
          in
          match tag with
          | Some tag -> verdicts := (i.iface_name, p.prop_name, tag) :: !verdicts
          | None -> ())
        i.properties)
    app.interfaces;
  List.rev !verdicts

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun ((i, p), cuts) ->
      Format.fprintf fmt "%s.%s: %s@," i p
        (String.concat ", " (List.map string_of_float cuts)))
    (List.sort compare t.iface);
  List.iter
    (fun (r, cuts) ->
      Format.fprintf fmt "link.%s: %s@," r
        (String.concat ", " (List.map string_of_float cuts)))
    t.link;
  List.iter
    (fun (r, cuts) ->
      Format.fprintf fmt "node.%s: %s@," r
        (String.concat ", " (List.map string_of_float cuts)))
    t.node;
  Format.fprintf fmt "@]"

module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Expr = Sekitei_expr.Expr

let e = Expr.parse
let c = Expr.parse_cond

let stream name =
  Model.iface ~cross_cost:(e "1 + ibw / 10")
    ~properties:[ Model.property ~tag:Model.Degradable "ibw" ]
    name

let cost expr_text = e ("1 + " ^ expr_text)

let app ?(supply = 200.) ?(demand = 90.) ~server ~client () =
  let interfaces = List.map stream [ "M"; "T"; "I"; "Z" ] in
  let components =
    [
      Model.component ~provides:[ "M" ]
        ~effects:[ ("M", "ibw", Expr.Const supply) ]
        ~placeable:false "Server";
      Model.component ~requires:[ "M" ]
        ~conditions:[ c (Printf.sprintf "M.ibw >= %g" demand) ]
        ~place_cost:(cost "M.ibw / 10")
        "Client";
      Model.component ~requires:[ "M" ] ~provides:[ "T"; "I" ]
        ~effects:
          [ ("T", "ibw", e "M.ibw * 7 / 10"); ("I", "ibw", e "M.ibw * 3 / 10") ]
        ~consumes:[ ("cpu", e "M.ibw / 5") ]
        ~place_cost:(cost "M.ibw / 10")
        "Splitter";
      Model.component ~requires:[ "T"; "I" ] ~provides:[ "M" ]
        ~conditions:[ c "T.ibw * 3 == I.ibw * 7" ]
        ~effects:[ ("M", "ibw", e "T.ibw + I.ibw") ]
        ~consumes:[ ("cpu", e "(T.ibw + I.ibw) / 5") ]
        ~place_cost:(cost "(T.ibw + I.ibw) / 10")
        "Merger";
      Model.component ~requires:[ "T" ] ~provides:[ "Z" ]
        ~effects:[ ("Z", "ibw", e "T.ibw / 2") ]
        ~consumes:[ ("cpu", e "T.ibw / 10") ]
        ~place_cost:(cost "T.ibw / 10")
        "Zip";
      Model.component ~requires:[ "Z" ] ~provides:[ "T" ]
        ~effects:[ ("T", "ibw", e "Z.ibw * 2") ]
        ~consumes:[ ("cpu", e "Z.ibw / 5") ]
        ~place_cost:(cost "Z.ibw * 2 / 10")
        "Unzip";
    ]
  in
  {
    Model.interfaces;
    components;
    pre_placed = [ ("Server", server) ];
    goals = [ Model.Placed ("Client", client) ];
  }

type scenario = A | B | C | D | E

let all_scenarios = [ A; B; C; D; E ]

let scenario_name = function
  | A -> "A"
  | B -> "B"
  | C -> "C"
  | D -> "D"
  | E -> "E"

let m_cutpoints = function
  | A -> []
  | B -> [ 100. ]
  | C -> [ 90.; 100. ]
  | D | E -> [ 30.; 70.; 90.; 100. ]

let leveling scenario app =
  let base =
    match m_cutpoints scenario with
    | [] -> Leveling.empty
    | cuts -> Leveling.with_iface Leveling.empty "M" "ibw" cuts
  in
  let base =
    match scenario with
    | E -> Leveling.with_link base "lbw" [ 31.; 62. ]
    | A | B | C | D -> base
  in
  Leveling.propagate app base

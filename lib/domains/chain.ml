module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Topology = Sekitei_network.Topology
module Expr = Sekitei_expr.Expr

let e = Expr.parse
let c = Expr.parse_cond
let server = 0
let client = 3

let topology () =
  Topology.(
    make
      ~nodes:(List.init 5 (fun i -> node i (Printf.sprintf "n%d" i)))
      ~links:
        [
          link ~bw:150. Lan 0 0 1;
          link ~bw:150. Lan 1 1 2;
          link ~bw:150. Lan 2 2 3;
          link ~bw:60. Wan 3 0 4;
          link ~bw:60. Wan 4 4 3;
        ])

let stream ~cross_weight name =
  Model.iface
    ~cross_cost:(e (Printf.sprintf "%g * (1 + ibw / 10)" cross_weight))
    ~properties:[ Model.property ~tag:Model.Degradable "ibw" ]
    name

let app ?(cross_weight = 1.) () =
  let cost expr_text = e ("1 + " ^ expr_text) in
  {
    Model.interfaces = List.map (stream ~cross_weight) [ "T"; "Z" ];
    components =
      [
        Model.component ~provides:[ "T" ]
          ~effects:[ ("T", "ibw", Expr.Const 100.) ]
          ~placeable:false "Server";
        Model.component ~requires:[ "T" ]
          ~conditions:[ c "T.ibw >= 90" ]
          ~place_cost:(cost "T.ibw / 10") "Client";
        Model.component ~requires:[ "T" ] ~provides:[ "Z" ]
          ~effects:[ ("Z", "ibw", e "T.ibw / 2") ]
          ~consumes:[ ("cpu", e "T.ibw / 10") ]
          ~place_cost:(cost "T.ibw / 10") "Zip";
        Model.component ~requires:[ "Z" ] ~provides:[ "T" ]
          ~effects:[ ("T", "ibw", e "Z.ibw * 2") ]
          ~consumes:[ ("cpu", e "Z.ibw / 5") ]
          ~place_cost:(cost "Z.ibw * 2 / 10") "Unzip";
      ];
    pre_placed = [ ("Server", server) ];
    goals = [ Model.Placed ("Client", client) ];
  }

let leveling app =
  Leveling.propagate app
    (Leveling.with_iface Leveling.empty "T" "ibw" [ 90.; 100. ])

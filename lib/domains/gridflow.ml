module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Topology = Sekitei_network.Topology
module Expr = Sekitei_expr.Expr

let e = Expr.parse
let c = Expr.parse_cond

let topology ~link_lats ~bws =
  let m = List.length link_lats in
  if List.length bws <> m then invalid_arg "Gridflow.topology: length mismatch";
  Topology.(
    make
      ~nodes:(List.init (m + 1) (fun i -> node i (Printf.sprintf "n%d" i)))
      ~links:
        (List.mapi
           (fun i (lat, bw) ->
             link ~bw ~resources:[ ("lat", lat) ] Lan i i (i + 1))
           (List.combine link_lats bws)))

let stream name =
  Model.iface
    ~cross_transforms:
      [ ("ibw", e "min(ibw, link.lbw)"); ("lat", e "lat + link.lat") ]
    ~cross_consumes:[ ("lbw", e "min(ibw, link.lbw)") ]
    ~cross_cost:(e "1 + ibw / 10")
    ~properties:
      [
        Model.property ~tag:Model.Degradable "ibw";
        Model.property ~default:0. ~tag:Model.Neither "lat";
      ]
    name

let app ?(supply = 120.) ?(demand = 20.) ?(deadline = 40.) ~storage ~consumer
    () =
  {
    Model.interfaces = List.map stream [ "F"; "FZ"; "R" ];
    components =
      [
        Model.component ~provides:[ "F" ]
          ~effects:[ ("F", "ibw", Expr.Const supply); ("F", "lat", Expr.Const 0.) ]
          ~placeable:false "Storage";
        Model.component ~requires:[ "F" ] ~provides:[ "R" ]
          ~effects:
            [ ("R", "ibw", e "F.ibw / 4"); ("R", "lat", e "F.lat + 5") ]
          ~consumes:[ ("cpu", e "F.ibw / 8") ]
          ~place_cost:(e "1 + F.ibw / 10")
          "Analyze";
        Model.component ~requires:[ "F" ] ~provides:[ "FZ" ]
          ~effects:
            [ ("FZ", "ibw", e "F.ibw / 3"); ("FZ", "lat", e "F.lat + 2") ]
          ~consumes:[ ("cpu", e "F.ibw / 10") ]
          ~place_cost:(e "1 + F.ibw / 10")
          "Compress";
        Model.component ~requires:[ "FZ" ] ~provides:[ "F" ]
          ~effects:
            [ ("F", "ibw", e "FZ.ibw * 3"); ("F", "lat", e "FZ.lat + 2") ]
          ~consumes:[ ("cpu", e "FZ.ibw / 5") ]
          ~place_cost:(e "1 + FZ.ibw * 3 / 10")
          "Expand";
        Model.component ~requires:[ "R" ]
          ~conditions:
            [
              c (Printf.sprintf "R.ibw >= %g" demand);
              c (Printf.sprintf "R.lat <= %g" deadline);
            ]
          ~place_cost:(e "1 + R.ibw / 10")
          "Consumer";
      ];
    pre_placed = [ ("Storage", storage) ];
    goals = [ Model.Placed ("Consumer", consumer) ];
  }

let leveling app =
  Leveling.propagate app
    (Leveling.with_iface Leveling.empty "F" "ibw" [ 60.; 80.; 120. ])

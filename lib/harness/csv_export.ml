module Planner = Sekitei_core.Planner
module Session = Sekitei_core.Session
module Plan = Sekitei_core.Plan
module Replay = Sekitei_core.Replay
module Media = Sekitei_domains.Media

let quote field =
  let needs =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') field
  in
  if needs then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let row_line cells = String.concat "," (List.map quote cells) ^ "\n"

(* One count column per {!Session.counts} row, named as the bench
   record names it. *)
let header =
  [
    "network"; "levels"; "found"; "cost_bound"; "plan_actions";
    "realized_cost"; "lan_peak"; "wan_peak";
  ]
  @ List.map Bench_json.key Session.counts
  @ [ "time_total_ms"; "time_search_ms" ]

let float_cell = Printf.sprintf "%.6g"

let table2_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (row_line header);
  List.iter
    (fun (r : Table2.row) ->
      let s = r.Table2.stats in
      let plan_cells =
        match r.Table2.plan with
        | Some p ->
            [
              "1";
              float_cell p.Plan.cost_lb;
              string_of_int (Plan.length p);
              float_cell p.Plan.metrics.Replay.realized_cost;
              float_cell p.Plan.metrics.Replay.lan_peak;
              float_cell p.Plan.metrics.Replay.wan_peak;
            ]
        | None -> [ "0"; ""; ""; ""; ""; "" ]
      in
      let count_cells =
        List.map
          (fun (c : Session.count) -> string_of_int (c.Session.get s))
          Session.counts
      in
      Buffer.add_string buf
        (row_line
           ([ r.Table2.network; Media.scenario_name r.Table2.level_scenario ]
           @ plan_cells @ count_cells
           @ [ float_cell s.Planner.t_total_ms; float_cell s.Planner.t_search_ms ])))
    rows;
  Buffer.contents buf

let write_table2 rows path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (table2_csv rows))

module Media = Sekitei_domains.Media
module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Replay = Sekitei_core.Replay
module Table = Sekitei_util.Ascii_table

type row = {
  network : string;
  level_scenario : Media.scenario;
  plan : Sekitei_core.Plan.t option;
  stats : Planner.stats;
}

let run_cell ?config (sc : Scenarios.t) level =
  let leveling = Media.leveling level sc.Scenarios.app in
  let report =
    Planner.plan (Planner.request ?config sc.Scenarios.topo sc.Scenarios.app ~leveling)
  in
  {
    network = sc.Scenarios.name;
    level_scenario = level;
    plan = Result.to_option report.Planner.result;
    stats = report.Planner.stats;
  }

let run ?config ?networks ?(levels = Media.all_scenarios) () =
  let networks =
    match networks with Some n -> n | None -> Scenarios.all ()
  in
  List.concat_map
    (fun sc -> List.map (run_cell ?config sc) levels)
    networks

let cell_or cell none = match cell with Some x -> x | None -> none

let render rows =
  let t =
    Table.create
      ~aligns:
        [
          Table.Left; Table.Center; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
        ]
      [
        "Scenario"; "Lvl"; "cost bound"; "actions in plan"; "reserved LAN bw";
        "total # actions"; "PLRG (p/a)"; "SLRG"; "RG (made/left)";
        "time ms (tot/search)";
      ]
  in
  let last_network = ref "" in
  List.iter
    (fun r ->
      if !last_network <> "" && !last_network <> r.network then
        Table.add_separator t;
      last_network := r.network;
      let s = r.stats in
      Table.add_row t
        [
          r.network;
          Media.scenario_name r.level_scenario;
          cell_or
            (Option.map (fun p -> Table.float_cell p.Plan.cost_lb) r.plan)
            "no plan";
          cell_or
            (Option.map (fun p -> string_of_int (Plan.length p)) r.plan)
            "-";
          cell_or
            (Option.map
               (fun p ->
                 let peak = p.Plan.metrics.Replay.lan_peak in
                 if peak > 0. then Table.float_cell peak else "N/A")
               r.plan)
            "-";
          string_of_int s.Planner.compile_actions;
          Printf.sprintf "%d / %d" s.Planner.plrg_relevant_props
            s.Planner.plrg_relevant_actions;
          string_of_int s.Planner.slrg.nodes;
          Printf.sprintf "%d / %d" s.Planner.rg.created s.Planner.rg.open_left;
          Printf.sprintf "%.0f / %.0f" s.Planner.t_total_ms s.Planner.t_search_ms;
        ])
    rows;
  Table.render t

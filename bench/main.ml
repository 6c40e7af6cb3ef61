(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (section 4), runs the post-processing and
   level-sensitivity ablations, and finishes with Bechamel
   microbenchmarks of the planner phases. *)

open Bechamel
open Toolkit
module Media = Sekitei_domains.Media
module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Compile = Sekitei_core.Compile
module Plrg = Sekitei_core.Plrg
module Scenarios = Sekitei_harness.Scenarios
module Table2 = Sekitei_harness.Table2
module Figures = Sekitei_harness.Figures
module Table = Sekitei_util.Ascii_table
module Leveling = Sekitei_spec.Leveling

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=');
  flush stdout

(* ------------------------------------------------------------------ *)
(* Paper exhibits                                                      *)
(* ------------------------------------------------------------------ *)

let run_exhibits () =
  section "Table 1: resource level scenarios";
  print_string (Figures.table1 ());
  section "Figures 3-4: Tiny network, greedy failure vs leveled plan";
  print_string (Figures.fig3_4 ());
  section "Figure 5: cost-function tradeoff";
  print_string (Figures.fig5 ());
  section "Figure 9: Small network, suboptimal vs optimal plan";
  print_string (Figures.fig9 ());
  section "Figure 10: Large transit-stub network";
  print_string (Figures.fig10 ());
  section "Table 2: scalability evaluation";
  let rows = Table2.run () in
  print_string (Table2.render rows);
  section "Ablation: original Sekitei post-processing";
  print_string (Figures.postprocess_ablation ())

(* ------------------------------------------------------------------ *)
(* Level-sensitivity sweep (paper section 6, future work)              *)
(* ------------------------------------------------------------------ *)

let level_sensitivity () =
  section "Ablation: number of levels vs planner effort (Small network)";
  let sc = Scenarios.small () in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "M cutpoints"; "actions"; "plan cost bound"; "RG nodes"; "search ms" ]
  in
  let cut_sets =
    [
      [ 100. ];
      [ 90.; 100. ];
      [ 70.; 90.; 100. ];
      [ 30.; 70.; 90.; 100. ];
      [ 15.; 30.; 50.; 70.; 90.; 100. ];
    ]
  in
  List.iter
    (fun cuts ->
      let leveling =
        Leveling.propagate sc.Scenarios.app
          (Leveling.with_iface Leveling.empty "M" "ibw" cuts)
      in
      let o =
        Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling)
      in
      Table.add_row t
        [
          String.concat "," (List.map (Printf.sprintf "%g") cuts);
          string_of_int o.Planner.stats.Planner.compile_actions;
          (match o.Planner.result with
          | Ok p -> Table.float_cell p.Plan.cost_lb
          | Error _ -> "no plan");
          string_of_int o.Planner.stats.Planner.rg.created;
          Printf.sprintf "%.0f" o.Planner.stats.Planner.t_search_ms;
        ])
    cut_sets;
  print_string (Table.render t)

(* ------------------------------------------------------------------ *)
(* Network-size scaling sweep                                          *)
(* ------------------------------------------------------------------ *)

(* The paper's abstract promises a characterization of scaling behaviour
   for various network configurations; Table 2 gives three points.  This
   sweep fills in the curve: transit-stub networks of growing size, same
   application, scenario C levels. *)
let size_scaling () =
  section "Scaling: planner effort vs network size (transit-stub, scenario C)";
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "nodes"; "leveled actions"; "PLRG props"; "RG nodes"; "search ms" ]
  in
  List.iter
    (fun stub_size ->
      let rng = Sekitei_util.Prng.create ~seed:0xC0FFEEL in
      let topo =
        Sekitei_network.Generators.transit_stub ~rng ~transit:3
          ~stubs_per_transit:3 ~stub_size ()
      in
      (* server in the first stub, client in the second, both one hop
         inside their stubs when possible *)
      let module R = Sekitei_network.Routing in
      let server = 3 and client = 3 + stub_size in
      if R.hop_distance topo server client <> None then begin
        let app = Sekitei_domains.Media.app ~server ~client () in
        let leveling = Sekitei_domains.Media.leveling Sekitei_domains.Media.C app in
        let o = Planner.plan (Planner.request topo app ~leveling) in
        Table.add_row t
          [
            string_of_int (Sekitei_network.Topology.node_count topo);
            string_of_int o.Planner.stats.Planner.compile_actions;
            string_of_int o.Planner.stats.Planner.plrg_relevant_props;
            string_of_int o.Planner.stats.Planner.rg.created;
            Printf.sprintf "%.0f" o.Planner.stats.Planner.t_search_ms;
          ]
      end
      else
        (* Keep the row so a generator regression is visible instead of a
           silently shorter table. *)
        Table.add_row t
          [
            string_of_int (Sekitei_network.Topology.node_count topo);
            "-"; "-"; "-"; "skipped (disconnected)";
          ])
    [ 2; 4; 6; 10; 14; 20 ];
  print_string (Table.render t)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let microbenches () =
  let tiny = Scenarios.tiny () in
  let small = Scenarios.small () in
  let solve sc level () =
    let leveling = Media.leveling level sc.Scenarios.app in
    ignore
      (Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling))
  in
  let compile sc level () =
    let leveling = Media.leveling level sc.Scenarios.app in
    ignore (Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling)
  in
  let plrg sc level =
    let leveling = Media.leveling level sc.Scenarios.app in
    let pb = Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling in
    fun () -> ignore (Plrg.build pb)
  in
  let registry_observe =
    let module Registry = Sekitei_telemetry.Registry in
    let reg = Registry.create () in
    fun () ->
      for i = 1 to 1000 do
        Registry.observe_ms reg "bench.hist" (float_of_int i)
      done
  in
  let tests =
    Test.make_grouped ~name:"sekitei"
      [
        Test.make ~name:"compile/tiny-C" (Staged.stage (compile tiny Media.C));
        Test.make ~name:"compile/small-E" (Staged.stage (compile small Media.E));
        Test.make ~name:"plrg/small-C" (Staged.stage (plrg small Media.C));
        Test.make ~name:"solve/tiny-A-greedy" (Staged.stage (solve tiny Media.A));
        Test.make ~name:"solve/tiny-C" (Staged.stage (solve tiny Media.C));
        Test.make ~name:"solve/small-C" (Staged.stage (solve small Media.C));
        Test.make ~name:"telemetry/registry-observe-1k"
          (Staged.stage registry_observe);
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:None () in
  section "Bechamel microbenchmarks (per-call wall clock)";
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] in
  List.iter
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some (est :: _) ->
          Printf.printf "%-28s %14.1f us/run\n" name (est /. 1e3)
      | _ -> Printf.printf "%-28s (no estimate)\n" name)
    (List.sort compare names)

(* ------------------------------------------------------------------ *)
(* Machine-readable mode: --json [--tag TAG] [--out FILE] [--check]    *)
(*                        [--repeat N]                                 *)
(*                        [--baseline FILE [--max-regress PCT]]        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let json_mode () =
  let module Bench_json = Sekitei_harness.Bench_json in
  let usage fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline ("bench json: " ^ msg);
        exit 2)
      fmt
  in
  let number flag parse s =
    match parse s with Some v -> v | None -> usage "bad %s %S" flag s
  in
  let tag = ref None and out = ref "BENCH_rg.json" and check = ref false in
  let baseline = ref None and max_regress = ref 50. and repeat = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest -> parse rest
    | "--check" :: rest ->
        check := true;
        parse rest
    | "--tag" :: v :: rest ->
        tag := Some v;
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline := Some v;
        parse rest
    | "--max-regress" :: v :: rest ->
        max_regress := number "--max-regress" float_of_string_opt v;
        parse rest
    | "--repeat" :: v :: rest ->
        repeat := number "--repeat" int_of_string_opt v;
        parse rest
    | [ (("--tag" | "--out" | "--baseline" | "--max-regress" | "--repeat") as
         flag) ] ->
        usage "%s needs a value" flag
    | arg :: _ -> usage "unknown argument %s" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let tag = !tag and out = !out and check = !check in
  let baseline = !baseline and max_regress = !max_regress and repeat = !repeat in
  let records = Bench_json.run_default ~repeat () in
  let doc = Bench_json.to_json ?tag records in
  Bench_json.write_file out doc;
  (if check then
     (* Deterministic output for the cram suite: re-parse what was written
        and report only the record count. *)
     match Bench_json.parse_check doc with
     | Ok n -> Printf.printf "bench json: %d records ok\n" n
     | Error e ->
         Printf.eprintf "bench json: %s\n" e;
         exit 1
   else begin
     print_string doc;
     Printf.eprintf "wrote %s\n" out
   end);
  match baseline with
  | None -> ()
  | Some path -> (
      match Bench_json.diff_baseline ~baseline:(read_file path) records with
      | Error e ->
          Printf.eprintf "bench json: %s\n" e;
          exit 1
      | Ok deltas -> (
          if not check then print_string (Bench_json.render_deltas deltas);
          match Bench_json.regressions ~max_regress deltas with
          | [] ->
              Printf.printf "bench gate: ok (max regress %.0f%%)\n" max_regress
          | bad ->
              Printf.printf "bench gate: %d metric(s) regressed >%.0f%%:\n"
                (List.length bad) max_regress;
              print_string (Bench_json.render_deltas bad);
              exit 1))

let () =
  if Array.exists (fun a -> a = "--json") Sys.argv then json_mode ()
  else begin
    run_exhibits ();
    level_sensitivity ();
    size_scaling ();
    microbenches ();
    print_newline ()
  end

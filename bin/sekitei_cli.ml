(* Command-line interface to the Sekitei planner.

   Subcommands:
     plan      - plan a built-in evaluation scenario or a DSL spec file
     batch     - plan several DSL spec files in parallel (multicore)
     check     - static preflight analysis (no search); text or JSON
     validate  - check a DSL spec file for well-formedness
     table1 / table2 / figure - regenerate the paper's exhibits
     topology  - generate topologies and export DOT *)

open Cmdliner
module Topology = Sekitei_network.Topology
module Generators = Sekitei_network.Generators
module Dot = Sekitei_network.Dot
module Model = Sekitei_spec.Model
module Validate = Sekitei_spec.Validate
module Dsl = Sekitei_spec.Dsl
module Planner = Sekitei_core.Planner
module Session = Sekitei_core.Session
module Telemetry = Sekitei_telemetry.Telemetry
module Registry = Sekitei_telemetry.Registry
module Export = Sekitei_telemetry.Export
module Plan = Sekitei_core.Plan
module Compile = Sekitei_core.Compile
module Replay = Sekitei_core.Replay
module Media = Sekitei_domains.Media
module Diagnostic = Sekitei_util.Diagnostic
module Preflight = Sekitei_analysis.Preflight
module Certify = Sekitei_analysis.Certify
module Scenarios = Sekitei_harness.Scenarios
module Table2 = Sekitei_harness.Table2
module Figures = Sekitei_harness.Figures

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let network_arg =
  let doc = "Built-in evaluation network: tiny, small or large." in
  Arg.(value & opt (enum [ ("tiny", `Tiny); ("small", `Small); ("large", `Large) ]) `Tiny
       & info [ "network"; "n" ] ~docv:"NET" ~doc)

let levels_arg =
  let doc = "Resource-level scenario (Table 1): A, B, C, D or E." in
  let scenarios =
    List.map (fun s -> (Media.scenario_name s, s)) Media.all_scenarios
  in
  Arg.(value & opt (enum scenarios) Media.C & info [ "levels"; "l" ] ~docv:"LVL" ~doc)

let seed_arg =
  let doc = "PRNG seed for the large network generator." in
  Arg.(value & opt int64 0xC0FFEEL & info [ "seed" ] ~docv:"SEED" ~doc)

let spec_arg =
  let doc = "Plan a CPP specification file (DSL) instead of a built-in scenario." in
  Arg.(value & opt (some file) None & info [ "spec"; "s" ] ~docv:"FILE" ~doc)

let verbose_arg =
  let doc = "Log planner phase progress to stderr." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let audit_arg =
  let doc = "Print a deployment audit (link/node utilization, streams)." in
  Arg.(value & flag & info [ "audit" ] ~doc)

let suggest_arg =
  let doc = "Derive resource levels automatically from demands and supplies \
             instead of a Table 1 scenario." in
  Arg.(value & flag & info [ "suggest-levels" ] ~doc)

let deployment_dot_arg =
  let doc = "Write the solved deployment as Graphviz DOT to this file." in
  Arg.(value & opt (some string) None & info [ "deployment-dot" ] ~docv:"FILE" ~doc)

(* An integer option's domain, declared once at the parse boundary: a
   value below [lo] is a usage error (exit 124), like a negative
   --deadline. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok v when v < lo ->
        Error (`Msg (Printf.sprintf "expected an integer >= %d, got %s" lo s))
    | parsed -> parsed
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let rg_budget_arg =
  let doc = "Maximum RG search expansions." in
  Arg.(value
       & opt (int_at_least 0) Planner.default_config.Planner.rg_max_expansions
       & info [ "rg-budget" ] ~docv:"N" ~doc)

let slrg_budget_arg =
  let doc = "SLRG set-node budget per heuristic query." in
  Arg.(value
       & opt (int_at_least 0) Planner.default_config.Planner.slrg_query_budget
       & info [ "slrg-budget" ] ~docv:"N" ~doc)

let trace_arg =
  let doc = "Write a JSONL telemetry trace (spans, counters, progress) to \
             this file.  Summarize it with tools/trace_report.exe." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc = "Print periodic search-progress events (expansions, open-list \
             size, best f) to stderr." in
  Arg.(value & flag & info [ "progress" ] ~doc)

let flight_arg =
  let doc = "Arm a flight recorder: keep the last telemetry events in a \
             fixed ring (no sink needed) and dump them as JSONL to this \
             file when a plan fails on a budget or deadline cutoff or an \
             escaping exception.  Summarize the dump with \
             tools/trace_report.exe." in
  Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)

let explain_arg =
  let doc = "Explain the outcome.  For a plan: per-action cost \
             contributions, chosen levels, and the binding resource \
             constraint (with slack) of every step.  For a failure: an \
             unsolvability certificate (pruned proposition chain, or the \
             best-f frontier of an out-of-budget search)." in
  Arg.(value & flag & info [ "explain" ] ~doc)

let hquality_arg =
  let doc = "Profile heuristic quality: record h(n) along the solution \
             path and report per-phase error percentiles, admissibility \
             violations, and the wasted-work ratio." in
  Arg.(value & flag & info [ "hquality" ] ~doc)

let verify_arg =
  let doc = "Re-validate every emitted plan through the independent \
             certifier (forward semantic replay plus a bit-exact cost \
             re-derivation, sharing no code with the planner's own \
             replay).  A rejected plan fails the run with a \
             Certification_failed diagnostic — always a planner bug." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let deadline_arg =
  let doc = "Per-request wall-clock deadline in milliseconds.  An \
             expired request stops gracefully with a Deadline_exceeded \
             failure carrying the interrupted phase and, when the search \
             frontier was reached, an admissible cost lower bound." in
  let ms =
    let parse s =
      match Arg.conv_parser Arg.float s with
      | Ok v when Float.is_nan v || v < 0. ->
          Error (`Msg (Printf.sprintf "expected a non-negative number, got %s" s))
      | parsed -> parsed
    in
    Arg.conv (parse, Arg.conv_printer Arg.float)
  in
  Arg.(value & opt (some ms) None & info [ "deadline" ] ~docv:"MS" ~doc)

(* Assemble the run's telemetry handle from --trace/--progress/--flight;
   returns the handle and a finalizer that flushes and closes the sinks,
   or the line to report when an output file cannot be written.
   --flight arms a ring recorder with a dump path: the planner's failure
   hook writes the JSONL postmortem, so no sink (and no finalizer work)
   is needed for it.  The dump is written only after a failed plan, so
   its directory is checked here, before any planning starts. *)
let telemetry_of ?flight trace progress =
  let progress_sink =
    if not progress then []
    else
      [
        Telemetry.sink (function
          | Telemetry.Progress { name; t_ms; attrs } ->
              Format.eprintf "[%7.1fms] %s:%a@." t_ms name
                (fun fmt ->
                  List.iter (fun (k, v) ->
                      Format.fprintf fmt " %s=%s" k
                        (match v with
                        | Telemetry.Bool b -> string_of_bool b
                        | Telemetry.Int i -> string_of_int i
                        | Telemetry.Float f -> Printf.sprintf "%g" f
                        | Telemetry.Str s -> s)))
                attrs
          | _ -> ());
      ]
  in
  match Option.map Filename.dirname flight with
  | Some dir when not (Sys.file_exists dir && Sys.is_directory dir) ->
      Error (Printf.sprintf "--flight: %s: no such directory" dir)
  | _ -> (
      let flight =
        Option.map
          (fun path -> Telemetry.Flight.create ~dump_path:path ())
          flight
      in
      match trace with
      | None when progress_sink = [] && Option.is_none flight ->
          Ok (Telemetry.null, fun () -> ())
      | None ->
          let t = Telemetry.create ?flight progress_sink in
          Ok (t, fun () -> Telemetry.close t)
      | Some file -> (
          match open_out file with
          | exception Sys_error msg -> Error ("--trace: " ^ msg)
          | oc ->
              let t =
                Telemetry.create ?flight (Telemetry.jsonl oc :: progress_sink)
              in
              Ok
                ( t,
                  fun () ->
                    Telemetry.close t;
                    close_out oc;
                    Format.printf "trace written to %s@." file )))

let scenario_of ?seed = function
  | `Tiny -> Scenarios.tiny ()
  | `Small -> Scenarios.small ()
  | `Large -> Scenarios.large ?seed ()

let config_of ?(explain = false) ?(profile_h = false) ?(certify = false)
    ?deadline_ms rg slrg =
  { Planner.default_config with
    Planner.rg_max_expansions = rg;
    slrg_query_budget = slrg;
    explain;
    profile_h;
    certify;
    deadline_ms }

(* ------------------------------------------------------------------ *)
(* Spec and scenario loading                                           *)
(* ------------------------------------------------------------------ *)

(* A spec error or an unwritable output file: one line on stderr,
   exit 2. *)
let error_line line =
  Format.eprintf "%s@." line;
  2

(* A spec file's topology, app and leveling; the file must carry a
   network block.  [Error] holds the line to report. *)
let load_spec file =
  match Dsl.load_file file with
  | exception Dsl.Dsl_error msg -> Error ("spec error: " ^ msg)
  | { Dsl.topo = None; _ } -> Error "spec file has no network block"
  | { Dsl.topo = Some topo; app; leveling } -> Ok (topo, app, leveling)

(* What a command plans or checks: the --spec file when given, else the
   built-in --network scenario (named, for the plan header) at the
   --levels scenario.  [suggest] replaces either leveling with
   Leveling.suggest. *)
type case = {
  name : string option;
  topo : Topology.t;
  app : Model.app;
  leveling : Sekitei_spec.Leveling.t;
}

let resolve_case ?(suggest = false) spec network levels seed =
  let case name (topo, app, leveling) =
    let leveling =
      if suggest then Sekitei_spec.Leveling.suggest app else leveling
    in
    { name; topo; app; leveling }
  in
  match spec with
  | Some file -> Result.map (case None) (load_spec file)
  | None ->
      let sc = scenario_of ~seed network in
      Ok
        (case (Some sc.Scenarios.name)
           ( sc.Scenarios.topo,
             sc.Scenarios.app,
             Media.leveling levels sc.Scenarios.app ))

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

(* The plan is printed, audited and drawn against the session's own
   compiled problem: a spec is compiled once, after validation. *)
let report_outcome ?dot_file ?(audit = false) session
    (report : Planner.report) =
  (* A plan implies compiled state. *)
  let pb () = Option.get (Session.problem session) in
  (match (audit, report.Planner.result) with
  | true, Ok p -> (
      match Sekitei_core.Audit.of_plan (pb ()) p with
      | Ok a -> print_string (Sekitei_core.Audit.to_string (pb ()) a)
      | Error e -> Format.printf "audit failed: %s@." e)
  | _ -> ());
  (match (dot_file, report.Planner.result) with
  | Some file, Ok p ->
      Sekitei_core.Deployment_dot.write_file (pb ()) p file;
      Format.printf "deployment graph written to %s@." file
  | _ -> ());
  (match report.Planner.result with
  | Ok p ->
      let pb = pb () in
      Format.printf "Plan (%d actions, cost bound %g, realized cost %g):@."
        (Plan.length p) p.Plan.cost_lb p.Plan.metrics.Replay.realized_cost;
      Format.printf "%s@." (Plan.to_string pb p);
      let m = p.Plan.metrics in
      Format.printf "LAN peak %g, WAN peak %g; delivered:@." m.Replay.lan_peak
        m.Replay.wan_peak;
      List.iter
        (fun (i, n, v) ->
          Format.printf "  %s at %s: %g@."
            pb.Sekitei_core.Problem.ifaces.(i).Model.iface_name
            (Topology.get_node pb.Sekitei_core.Problem.topo n).Topology.node_name
            v)
        m.Replay.delivered
  | Error r -> Format.printf "No plan: %a@." Planner.pp_failure r);
  (match report.Planner.explanation with
  | Some ex ->
      Format.printf "Explanation:@.%s" (Sekitei_core.Explain.render ex)
  | None -> ());
  (match report.Planner.certificate with
  | Some c ->
      Format.printf "Certificate:@.%s" (Sekitei_core.Explain.render_certificate c)
  | None -> ());
  (match Sekitei_harness.Hquality.of_report report with
  | Some hq ->
      Format.printf "Heuristic quality:@.%s" (Sekitei_harness.Hquality.render hq)
  | None -> ());
  Format.printf "Stats: %a@." Planner.pp_stats report.Planner.stats;
  Format.printf "Phases: %a@." Planner.pp_phases report;
  match report.Planner.result with Ok _ -> 0 | Error _ -> 1

let plan_cmd =
  let run spec network levels seed rg slrg deadline dot_file audit suggest
      trace progress flight explain hquality verify verbose =
    setup_logs verbose;
    let config =
      config_of ~explain ~profile_h:hquality ~certify:verify
        ?deadline_ms:deadline rg slrg
    in
    match resolve_case ~suggest spec network levels seed with
    | Error line -> error_line line
    | Ok c -> (
        match telemetry_of ?flight trace progress with
        | Error line -> error_line line
        | Ok (telemetry, finish_telemetry) ->
            Option.iter
              (fun name ->
                Format.printf "Planning %s with %s...@." name
                  (if suggest then "suggested levels"
                   else "level scenario " ^ Media.scenario_name levels))
              c.name;
            let session =
              Session.create
                (Planner.request ~config ~telemetry c.topo c.app
                   ~leveling:c.leveling)
            in
            let report = Session.plan session in
            let code =
              match report.Planner.result with
              | Error (Planner.Invalid_spec msg) ->
                  (* The spec failed to validate or to ground. *)
                  error_line ("spec error: " ^ msg)
              | _ -> (
                  (* The deployment graph is the one file written here. *)
                  match report_outcome ?dot_file ~audit session report with
                  | code -> code
                  | exception Sys_error msg ->
                      error_line ("--deployment-dot: " ^ msg))
            in
            finish_telemetry ();
            if verify && code = 0 then
              Format.printf "plan independently certified@.";
            (match flight with
            | Some file when code <> 0 && Sys.file_exists file ->
                Format.printf "flight dump written to %s@." file
            | _ -> ());
            code)
  in
  let term =
    Term.(
      const run $ spec_arg $ network_arg $ levels_arg $ seed_arg $ rg_budget_arg
      $ slrg_budget_arg $ deadline_arg $ deployment_dot_arg $ audit_arg
      $ suggest_arg $ trace_arg $ progress_arg $ flight_arg $ explain_arg
      $ hquality_arg $ verify_arg $ verbose_arg)
  in
  Cmd.v (Cmd.info "plan" ~doc:"Solve a component placement problem") term

(* ------------------------------------------------------------------ *)
(* batch                                                               *)
(* ------------------------------------------------------------------ *)

let batch_cmd =
  let files =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"SPEC" ~doc:"CPP specification files (DSL)")
  in
  let jobs_arg =
    let doc =
      "Worker domains for the batch (default 0 = one per recommended \
       core, capped at the batch size).  --jobs 1 plans sequentially on \
       the calling domain."
    in
    Arg.(value & opt (int_at_least 0) 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let run files jobs rg slrg verify verbose =
    setup_logs verbose;
    let config = config_of ~certify:verify rg slrg in
    (* Parse every spec up front: a syntax error anywhere aborts the
       batch before any planning starts (exit 2, like plan --spec). *)
    let parsed =
      List.map
        (fun file ->
          match load_spec file with
          | Error line -> Error (file, line)
          | Ok (topo, app, leveling) ->
              Ok (file, Planner.request ~config topo app ~leveling))
        files
    in
    match
      List.find_map (function Error e -> Some e | Ok _ -> None) parsed
    with
    | Some (file, line) -> error_line (file ^ ": " ^ line)
    | None ->
        let named =
          List.filter_map
            (function Ok fr -> Some fr | Error _ -> None)
            parsed
        in
        let reports =
          Planner.plan_batch ~jobs (List.map snd named)
        in
        (* Reports come back in input order regardless of jobs; one
           summary line per file, in the order given on the command
           line. *)
        let failed = ref 0 in
        List.iter2
          (fun (file, _) (r : Planner.report) ->
            match r.Planner.result with
            | Ok p ->
                Format.printf "%s: plan cost %g (%d actions)@." file
                  p.Plan.cost_lb (Plan.length p)
            | Error reason ->
                incr failed;
                Format.printf "%s: no plan: %a@." file
                  Planner.pp_failure reason)
          named reports;
        if !failed = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Plan several specification files in parallel (one planner per \
          worker domain; results print in input order)")
    Term.(
      const run $ files $ jobs_arg $ rg_budget_arg $ slrg_budget_arg
      $ verify_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* session                                                             *)
(* ------------------------------------------------------------------ *)

exception Script_error of int * string

(* One parsed script line.  The grammar is deliberately tiny:
     plan
     metrics
     update set-node <node> <resource> <value>
     update set-link <link> <resource> <value>
     update remove-link <link>
     update fail-node <node>
   `metrics` prints the session's always-on registry (Prometheus text)
   at that point in the script.  Blank lines and `#` comments are
   skipped.  Node and link operands are
   stable integer ids: removals tombstone a link without renumbering the
   survivors, so an id printed by `plan`/`audit` output stays valid for
   the rest of the script.  Naming a removed link or a never-issued id
   is reported as a script error with the offending line. *)
type script_cmd = Do_plan | Do_metrics | Do_update of Session.delta

let parse_script file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let cmds = ref [] and lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let fail msg = raise (Script_error (!lineno, msg)) in
           let int_of what s =
             match int_of_string_opt s with
             | Some v -> v
             | None -> fail (Printf.sprintf "bad %s %S" what s)
           in
           let float_of what s =
             match float_of_string_opt s with
             | Some v -> v
             | None -> fail (Printf.sprintf "bad %s %S" what s)
           in
           match
             String.split_on_char ' ' line
             |> List.concat_map (String.split_on_char '\t')
             |> List.filter (fun t -> t <> "")
           with
           | [] -> ()
           | comment :: _ when String.length comment > 0 && comment.[0] = '#'
             ->
               ()
           | [ "plan" ] -> cmds := (!lineno, Do_plan) :: !cmds
           | [ "metrics" ] -> cmds := (!lineno, Do_metrics) :: !cmds
           | [ "update"; "set-node"; n; res; v ] ->
               cmds :=
                 ( !lineno,
                   Do_update
                     (Session.Set_node_resource
                        {
                          node = int_of "node id" n;
                          resource = res;
                          value = float_of "value" v;
                        }) )
                 :: !cmds
           | [ "update"; "set-link"; l; res; v ] ->
               cmds :=
                 ( !lineno,
                   Do_update
                     (Session.Set_link_resource
                        {
                          link = int_of "link id" l;
                          resource = res;
                          value = float_of "value" v;
                        }) )
                 :: !cmds
           | [ "update"; "remove-link"; l ] ->
               cmds :=
                 ( !lineno,
                   Do_update (Session.Remove_link { link = int_of "link id" l })
                 )
                 :: !cmds
           | [ "update"; "fail-node"; n ] ->
               cmds :=
                 ( !lineno,
                   Do_update (Session.Fail_node { node = int_of "node id" n })
                 )
                 :: !cmds
           | first :: _ ->
               fail
                 (Printf.sprintf
                    "unknown command %S (expected plan/metrics/update)" first)
         done
       with End_of_file -> ());
      List.rev !cmds)

let render_delta = function
  | Session.Set_node_resource { node; resource; value } ->
      Printf.sprintf "set-node %d %s %g" node resource value
  | Session.Set_link_resource { link; resource; value } ->
      Printf.sprintf "set-link %d %s %g" link resource value
  | Session.Remove_link { link } -> Printf.sprintf "remove-link %d" link
  | Session.Fail_node { node } -> Printf.sprintf "fail-node %d" node

let session_cmd =
  let script_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SCRIPT"
          ~doc:
            "Session script: one command per line — $(b,plan), \
             $(b,metrics) (print the session's metric registry as \
             Prometheus text), $(b,update set-node N RES V), $(b,update \
             set-link L RES V), $(b,update remove-link L), $(b,update \
             fail-node N); blank lines and $(b,#) comments are ignored.")
  in
  let spec_req_arg =
    let doc = "CPP specification file (DSL) the session plans against." in
    Arg.(
      required & opt (some file) None & info [ "spec"; "s" ] ~docv:"FILE" ~doc)
  in
  let run spec script rg slrg deadline flight verify verbose =
    setup_logs verbose;
    match (load_spec spec, telemetry_of ?flight None false) with
    | Error line, _ | _, Error line -> error_line line
    | Ok (topo, app, leveling), Ok (telemetry, finish_telemetry) -> (
        match parse_script script with
        | exception Script_error (line, msg) ->
            Format.eprintf "%s:%d: %s@." script line msg;
            2
        | cmds ->
            let config =
              config_of ~certify:verify ?deadline_ms:deadline rg slrg
            in
            let session =
              Session.create
                (Planner.request ~config ~telemetry topo app ~leveling)
            in
            let finish code =
              finish_telemetry ();
              code
            in
            let plans = ref 0 and failed = ref 0 in
            try
            List.iter
              (fun (line, cmd) ->
                match cmd with
                | Do_plan ->
                    incr plans;
                    let warm = Session.is_warm session in
                    let r = Session.plan session in
                    let s = r.Session.stats in
                    let temperature = if warm then "warm" else "cold" in
                    (match r.Session.result with
                    | Ok p ->
                        Format.printf
                          "plan %d (%s): cost %g (%d actions), \
                           invalidated=%d evicted=%d@."
                          !plans temperature p.Plan.cost_lb (Plan.length p)
                          s.Session.invalidated_actions
                          s.Session.evicted_entries
                    | Error reason ->
                        incr failed;
                        Format.printf
                          "plan %d (%s): no plan: %a, invalidated=%d \
                           evicted=%d@."
                          !plans temperature Session.pp_failure reason
                          s.Session.invalidated_actions
                          s.Session.evicted_entries)
                | Do_metrics ->
                    print_string
                      (Export.to_prometheus (Session.metrics_snapshot session))
                | Do_update delta -> (
                    match Session.update session delta with
                    | (_ : Session.t) ->
                        Format.printf
                          "update %s: ok (%d nodes, %d links)@."
                          (render_delta delta)
                          (Topology.node_count (Session.topology session))
                          (Topology.link_count (Session.topology session))
                    | exception Topology.Stale_link l ->
                        raise
                          (Script_error
                             ( line,
                               Printf.sprintf
                                 "update %s: link %d was removed by an \
                                  earlier update"
                                 (render_delta delta) l ))
                    | exception Invalid_argument msg ->
                        raise
                          (Script_error
                             ( line,
                               Printf.sprintf "update %s: %s"
                                 (render_delta delta) msg ))))
              cmds;
            finish (if !failed = 0 then 0 else 1)
            with Script_error (line, msg) ->
              Format.eprintf "%s:%d: %s@." script line msg;
              finish 2)
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:
         "Run a long-lived planning session from a script of plan/update \
          commands (warm replans reuse compiled state and the cost-oracle \
          cache across requests)")
    Term.(
      const run $ spec_req_arg $ script_arg $ rg_budget_arg $ slrg_budget_arg
      $ deadline_arg $ flight_arg $ verify_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Plan through a throwaway session and expose its always-on registry.
   The exit code reflects the exposition (0 rendered, 3 schema-rejected
   under --check, 2 spec error), not the plan outcome: the command's
   product is the metrics, and a failed plan is still a valid — often the
   interesting — set of samples. *)
let metrics_cmd =
  let format_arg =
    let doc = "Exposition format: prometheus (text) or json." in
    Arg.(
      value
      & opt (enum [ ("prometheus", `Prom); ("json", `Json) ]) `Prom
      & info [ "format"; "f" ] ~docv:"FMT" ~doc)
  in
  let check_arg =
    let doc = "Also run the structural schema validator over the rendered \
               exposition; exit 3 when it rejects." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let repeat_arg =
    let doc = "Serve the request N times through one warm session, so the \
               latency histograms carry warm as well as cold samples." in
    Arg.(value & opt (int_at_least 1) 1 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let run spec network levels seed rg slrg deadline repeat format check
      verbose =
    setup_logs verbose;
    let config = config_of ?deadline_ms:deadline rg slrg in
    match resolve_case spec network levels seed with
    | Error line -> error_line line
    | Ok c -> (
        let session =
          Session.create
            (Planner.request ~config c.topo c.app ~leveling:c.leveling)
        in
        for _ = 1 to repeat do
          ignore (Session.plan session : Planner.report)
        done;
        let snap = Session.metrics_snapshot session in
        let rendered =
          match format with
          | `Prom -> Export.to_prometheus snap
          | `Json -> Sekitei_util.Json.to_string (Export.to_json snap) ^ "\n"
        in
        print_string rendered;
        if not check then 0
        else
          let verdict =
            match format with
            | `Prom -> Export.validate_prometheus rendered
            | `Json -> Export.validate_json (Export.to_json snap)
          in
          match verdict with
          | Ok () ->
              Format.eprintf "exposition schema: ok@.";
              0
          | Error msg ->
              Format.eprintf "exposition schema: %s@." msg;
              3)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Plan a request through a session and print its always-on metric \
          registry (counters, gauges, latency histograms) as Prometheus \
          text or JSON")
    Term.(
      const run $ spec_arg $ network_arg $ levels_arg $ seed_arg
      $ rg_budget_arg $ slrg_budget_arg $ deadline_arg $ repeat_arg
      $ format_arg $ check_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

(* Static preflight: validate the spec, compile it, and run the
   structural analyses — never the SLRG/RG search.  Exit 0 clean, 1 when
   the worst finding is a warning, 2 when any error (the spec is
   provably infeasible or invalid). *)
let check_cmd =
  let format_arg =
    let doc = "Report format: text (one diagnostic per line) or json." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format"; "f" ] ~docv:"FMT" ~doc)
  in
  let render format pb diags =
    (match format with
    | `Json ->
        let json =
          match pb with
          | Some pb -> Preflight.report_json pb diags
          | None ->
              (* Validation failed before compilation: no action counts. *)
              Sekitei_util.Json.Obj
                [
                  ( "errors",
                    Sekitei_util.Json.Int
                      (List.length (Diagnostic.errors diags)) );
                  ( "warnings",
                    Sekitei_util.Json.Int
                      (List.length (Diagnostic.warnings diags)) );
                  ( "diagnostics",
                    Diagnostic.list_to_json (Diagnostic.by_severity diags) );
                ]
        in
        print_string (Sekitei_util.Json.to_string json ^ "\n")
    | `Text ->
        List.iter
          (fun d -> print_endline (Diagnostic.to_string d))
          (Diagnostic.by_severity diags);
        (match pb with
        | Some pb ->
            Format.printf "%d leveled action(s); pruned %d dead@."
              (Array.length pb.Sekitei_core.Problem.actions)
              pb.Sekitei_core.Problem.pruned_actions
        | None -> ());
        Format.printf "%d error(s), %d warning(s)@."
          (List.length (Diagnostic.errors diags))
          (List.length (Diagnostic.warnings diags)));
    Diagnostic.exit_code diags
  in
  let run spec network levels seed suggest format verbose =
    setup_logs verbose;
    match resolve_case ~suggest spec network levels seed with
    | Error line -> error_line line
    | Ok c -> (
        match Validate.check_diagnostics c.topo c.app with
        | _ :: _ as spec_diags ->
            (* Invalid specs never reach the compiler, so the preflight
               passes cannot run; report what the validator found. *)
            render format None spec_diags
        | [] -> (
            (* A spec can validate and still fail to ground (a
               pre-placed component exceeding its node's capacity). *)
            match Compile.compile c.topo c.app c.leveling with
            | exception Compile.Compile_error msg ->
                error_line ("spec error: " ^ msg)
            | pb -> render format (Some pb) (Preflight.check pb)))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Static preflight analysis of a specification: spec validation, \
          dead-action accounting, producer/placement/level-grid checks, \
          topology cuts and PLRG reachability — proves infeasibility \
          without running the planner's search (exit 2 = provably \
          infeasible or invalid, 1 = warnings, 0 = clean)")
    Term.(
      const run $ spec_arg $ network_arg $ levels_arg $ seed_arg $ suggest_arg
      $ format_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

let validate_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc:"DSL file")
  in
  let run file =
    match Dsl.load_file file with
    | exception Dsl.Dsl_error msg ->
        Format.eprintf "parse error: %s@." msg;
        2
    | doc -> (
        match doc.Dsl.topo with
        | None ->
            Format.printf "parsed OK (no network block; skipping deep checks)@.";
            0
        | Some topo -> (
            match Validate.check topo doc.Dsl.app with
            | [] ->
                Format.printf "specification is valid@.";
                0
            | issues ->
                List.iter (fun i -> Format.printf "%a@." Validate.pp_issue i) issues;
                1))
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check a CPP specification file")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* exhibits                                                            *)
(* ------------------------------------------------------------------ *)

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the paper's Table 1 (level scenarios)")
    Term.(
      const (fun () ->
          print_string (Figures.table1 ());
          0)
      $ const ())

let table2_cmd =
  let networks_arg =
    let doc = "Comma-separated networks to include (tiny,small,large)." in
    Arg.(value & opt (list (enum [ ("tiny", `Tiny); ("small", `Small); ("large", `Large) ]))
           [ `Tiny; `Small; `Large ]
         & info [ "networks" ] ~docv:"NETS" ~doc)
  in
  let csv_arg =
    let doc = "Also write the rows as CSV to this file." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let run networks rg slrg csv =
    let config = config_of rg slrg in
    let rows = Table2.run ~config ~networks:(List.map scenario_of networks) () in
    print_string (Table2.render rows);
    (match csv with
    | Some file ->
        Sekitei_harness.Csv_export.write_table2 rows file;
        Format.printf "rows written to %s@." file
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Regenerate the paper's Table 2 (scalability)")
    Term.(const run $ networks_arg $ rg_budget_arg $ slrg_budget_arg $ csv_arg)

let figure_cmd =
  let which =
    Arg.(required
         & pos 0
             (some (enum
                [ ("3", `F3); ("4", `F3); ("5", `F5); ("9", `F9); ("10", `F10);
                  ("ablation", `Ablation) ]))
             None
         & info [] ~docv:"FIGURE" ~doc:"3, 4, 5, 9, 10 or 'ablation'")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Include DOT output (figure 10)")
  in
  let run which dot =
    (match which with
    | `F3 -> print_string (Figures.fig3_4 ())
    | `F5 -> print_string (Figures.fig5 ())
    | `F9 -> print_string (Figures.fig9 ())
    | `F10 -> print_string (Figures.fig10 ~dot ())
    | `Ablation -> print_string (Figures.postprocess_ablation ()));
    0
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate a figure of the paper")
    Term.(const run $ which $ dot)

(* ------------------------------------------------------------------ *)
(* topology                                                            *)
(* ------------------------------------------------------------------ *)

let topology_cmd =
  let kinds =
    [ ("line", `Line); ("ring", `Ring); ("star", `Star); ("grid", `Grid);
      ("transit-stub", `Ts) ]
  in
  let kind =
    Arg.(value
         & opt (enum kinds) `Ts
         & info [ "kind"; "k" ] ~docv:"KIND" ~doc:"Generator kind")
  in
  (* The generators' own minimums; transit-stub clamps any size. *)
  let min_size = function
    | `Ring -> 3
    | `Line | `Star | `Grid -> 1
    | `Ts -> min_int
  in
  let size =
    Arg.(value & opt int 10 & info [ "size" ] ~docv:"N" ~doc:"Node count parameter")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write DOT here instead of stdout")
  in
  let run kind size seed out =
    if size < min_size kind then begin
      Format.eprintf "topology: --kind %s needs --size >= %d, got %d@."
        (fst (List.find (fun (_, k) -> k = kind) kinds))
        (min_size kind) size;
      2
    end
    else begin
      let rng = Sekitei_util.Prng.create ~seed in
      let topo =
        match kind with
        | `Line -> Generators.line size
        | `Ring -> Generators.ring size
        | `Star -> Generators.star size
        | `Grid -> Generators.grid size size
        | `Ts ->
            Generators.transit_stub ~rng ~transit:3 ~stubs_per_transit:3
              ~stub_size:(max 1 (size / 9)) ()
      in
      let dot = Dot.to_dot topo in
      (match out with
      | Some file ->
          Dot.write_file topo file;
          Format.printf "wrote %s (%d nodes, %d links)@." file
            (Topology.node_count topo) (Topology.link_count topo)
      | None -> print_string dot);
      0
    end
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Generate a synthetic topology (DOT)")
    Term.(const run $ kind $ size $ seed_arg $ out)

(* ------------------------------------------------------------------ *)

let main =
  Cmd.group
    (Cmd.info "sekitei" ~version:"1.0.0"
       ~doc:"Resource-aware deployment planning for component-based applications")
    [
      plan_cmd; batch_cmd; session_cmd; metrics_cmd; check_cmd; validate_cmd;
      table1_cmd; table2_cmd; figure_cmd; topology_cmd;
    ]

let () =
  (* Make config.certify (--verify) live: hook the independent certifier
     into the core session without a core->analysis dependency. *)
  Certify.install ();
  exit (Cmd.eval' main)

(* Machine-readable planner benchmark records.

   One record per (scenario, level) pair, serialized as a JSON array so
   the perf trajectory of the RG search can be tracked across commits
   (BENCH_rg.json at the repository root).  Serialization goes through
   the shared {!Sekitei_util.Json} writer over the fixed, flat schema
   below; the structural check stays hand-rolled so it exercises the
   emitted text independently of the writer. *)

module Planner = Sekitei_core.Planner
module Session = Sekitei_core.Session
module Media = Sekitei_domains.Media
module Json = Sekitei_util.Json
module Telemetry = Sekitei_telemetry.Telemetry
module Registry = Sekitei_telemetry.Registry
module Export = Sekitei_telemetry.Export
module Certify = Sekitei_analysis.Certify
module Diagnostic = Sekitei_util.Diagnostic

type record = {
  scenario : string;
  stats : Session.stats;
  search_ms : float;
  warm_search_ms : float;
  phases : Session.phases;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Every field of every phase, each the median over [runs]. *)
let median_phases (runs : Planner.report list) =
  let phase get =
    let med f = median (List.map (fun r -> f (get r.Planner.phases)) runs) in
    {
      Session.ms = med (fun p -> p.Session.ms);
      minor_words = med (fun p -> p.Session.minor_words);
      major_collections =
        Float.to_int (med (fun p -> float_of_int p.Session.major_collections));
    }
  in
  {
    Session.compile = phase (fun p -> p.Session.compile);
    plrg = phase (fun p -> p.Session.plrg);
    slrg = phase (fun p -> p.Session.slrg);
    rg = phase (fun p -> p.Session.rg);
  }

let measure ?config ?(repeat = 1) (sc : Scenarios.t) level =
  let repeat = Stdlib.max 1 repeat in
  let leveling = Media.leveling level sc.Scenarios.app in
  (* The recorded timings measure the production configuration: metric
     registry shared across the repeats and a flight recorder armed on
     every run's telemetry handle, with no sinks attached — exactly the
     always-on observability a deployed planner carries. *)
  let metrics = Registry.create () in
  let telemetry () = Telemetry.create ~flight:(Telemetry.Flight.create ()) [] in
  let runs =
    List.init repeat (fun _ ->
        (* Each timed run starts from a compacted heap: without this,
           garbage left by earlier scenarios/repeats of the same process
           charges its collection cost to whichever run happens to
           allocate next, and the medians drift with measurement order. *)
        Gc.compact ();
        Planner.plan ~metrics
          (Planner.request ?config ~telemetry:(telemetry ())
             sc.Scenarios.topo sc.Scenarios.app ~leveling))
  in
  (* The planner is deterministic, so the counters agree across repeats;
     they are read from the first run.  Timings (and the allocation
     figure, which GC state can perturb) take the median — one noisy
     run out of three no longer moves the checked-in record. *)
  let first = List.hd runs in
  (* Every benchmarked plan is independently certified, outside the
     timed runs — a perf record for a plan the certifier rejects would
     be tracking a planner bug, not a planner. *)
  (match first.Planner.result with
  | Ok p -> (
      let pb =
        Sekitei_core.Compile.compile sc.Scenarios.topo sc.Scenarios.app
          leveling
      in
      match Certify.check pb p with
      | [] -> ()
      | d :: _ ->
          failwith
            (Printf.sprintf "bench %s-%s: plan failed certification: %s"
               sc.Scenarios.name (Media.scenario_name level)
               (Diagnostic.to_string d)))
  | Error _ -> ());
  (* Warm timings come from a {!Session}: one cold plan compiles
     the problem and fills the oracle, then [repeat] warm re-plans are
     timed and the median recorded — the cross-request reuse the Session
     API exists for.  The cold figures above stay one-shot runs so they
     remain comparable with pre-session baselines. *)
  Gc.compact ();
  let session =
    Session.create ~metrics
      (Planner.request ?config ~telemetry:(telemetry ()) sc.Scenarios.topo
         sc.Scenarios.app ~leveling)
  in
  ignore (Session.plan session);
  let warm_search_ms =
    median
      (List.init repeat (fun _ ->
           (Session.plan session).Session.stats.Session.t_search_ms))
  in
  {
    scenario =
      Printf.sprintf "%s-%s" sc.Scenarios.name (Media.scenario_name level);
    stats = first.Planner.stats;
    search_ms =
      median (List.map (fun r -> r.Planner.stats.Planner.t_search_ms) runs);
    warm_search_ms;
    phases = median_phases runs;
  }

let run_default ?config ?(repeat = 1) () =
  List.map
    (fun sc -> measure ?config ~repeat sc Media.C)
    [ Scenarios.tiny (); Scenarios.small (); Scenarios.large () ]

(* A count's key: its {!Session.counts} name, sanitized as the
   Prometheus exposition does (dots become underscores). *)
let key (c : Session.count) = Export.sanitize c.Session.name

(* Every key of a record, in emission order, with the JSON kind the
   schema check expects and the value {!to_json} writes.  A float
   column accepts an integer: a whole-valued float is emitted without a
   fraction. *)
let columns =
  let count (c : Session.count) =
    (key c, `Int, fun r -> Json.Int (c.Session.get r.stats))
  in
  (* Timings are rounded to microseconds so records stay
     diff-friendly; allocation counts to whole words. *)
  let ms k f =
    (k, `Float, fun r -> Json.Float (Float.round (f r *. 1000.) /. 1000.))
  in
  let words k f = (k, `Float, fun r -> Json.Float (Float.round (f r))) in
  let int k f = (k, `Int, fun r -> Json.Int (f r)) in
  (("scenario", `Str, fun r -> Json.Str r.scenario)
   :: List.map count Session.counts)
  @ [
      ms "search_ms" (fun r -> r.search_ms);
      ms "warm_search_ms" (fun r -> r.warm_search_ms);
      ms "compile_ms" (fun r -> r.phases.compile.ms);
      words "compile_minor_words" (fun r -> r.phases.compile.minor_words);
      ms "plrg_ms" (fun r -> r.phases.plrg.ms);
      ms "slrg_ms" (fun r -> r.phases.slrg.ms);
      ms "rg_ms" (fun r -> r.phases.rg.ms);
      words "minor_words" (fun r -> r.phases.rg.minor_words);
      words "slrg_minor_words" (fun r -> r.phases.slrg.minor_words);
      int "major_collections" (fun r -> r.phases.rg.major_collections);
    ]

let record_to_json ?tag r =
  let tag_field =
    match tag with None -> [] | Some t -> [ ("tag", Json.Str t) ]
  in
  Json.Obj (tag_field @ List.map (fun (k, _, value) -> (k, value r)) columns)

let to_json ?tag records =
  "[\n  "
  ^ String.concat ",\n  "
      (List.map (fun r -> Json.to_string (record_to_json ?tag r)) records)
  ^ "\n]\n"

(* The records of a document that passes the schema check. *)
let parse_records doc =
  match Json.of_string doc with
  | Error e -> Error e
  | Ok (Json.List records) ->
      let bad_key obj (k, kind, _) =
        match (kind, Json.member k obj) with
        | `Str, Some (Json.Str _)
        | `Int, Some (Json.Int _)
        | `Float, Some (Json.Float _ | Json.Int _) ->
            None
        | _ -> Some k
      in
      let rec go i = function
        | [] -> Ok records
        | r :: rest -> (
            match List.find_map (bad_key r) columns with
            | Some k ->
                Error (Printf.sprintf "record %d: bad or missing key %s" i k)
            | None -> go (i + 1) rest)
      in
      go 0 records
  | Ok _ -> Error "not a JSON array"

let parse_check doc = Result.map List.length (parse_records doc)

let write_file path doc =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc doc)

(* ------------------------------------------------------------------ *)
(* Baseline regression diff                                            *)
(* ------------------------------------------------------------------ *)

type delta = {
  d_scenario : string;
  d_metric : string;
  d_base : float;
  d_cur : float;
  d_pct : float;
}

(* The gated metrics: RG search wall time, RG nodes created (exactly
   reproducible — it catches search-space blowups that a fast machine
   would hide), the SLRG share of the search, the warm session re-plan
   time (a cross-request reuse regression shows up there first), and the
   words compilation allocates (exactly reproducible too: a grounding
   blowup trips it on any host). *)
let gated_metrics =
  [
    "search_ms"; "rg_created"; "slrg_ms"; "warm_search_ms"; "compile_minor_words";
  ]

let diff_baseline ~baseline records =
  match parse_records baseline with
  | Error e -> Error ("baseline: " ^ e)
  | Ok rows ->
      let lookup scenario =
        List.find_opt
          (fun row ->
            match Json.member "scenario" row with
            | Some (Json.Str s) -> String.equal s scenario
            | _ -> false)
          rows
      in
      let diff_record r =
        match lookup r.scenario with
        | None -> Error (Printf.sprintf "baseline has no record for %s" r.scenario)
        | Some row ->
            (* The current value is read off the record's own JSON, so a
               gated key means the same on both sides.  The baseline
               passed the schema check and the current record is written
               from the same columns, so both carry every gated key. *)
            let current = record_to_json r in
            let metric obj m = Option.bind (Json.member m obj) Json.to_float in
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | m :: rest -> (
                  match (metric row m, metric current m) with
                  | None, _ | _, None ->
                      invalid_arg ("Bench_json.gated_metrics: " ^ m)
                  | Some base, Some cur ->
                      let pct =
                        if base > 0. then (cur -. base) /. base *. 100.
                        else if cur > 0. then Float.infinity
                        else 0.
                      in
                      go
                        ({
                           d_scenario = r.scenario;
                           d_metric = m;
                           d_base = base;
                           d_cur = cur;
                           d_pct = pct;
                         }
                        :: acc)
                        rest)
            in
            go [] gated_metrics
      in
      let rec all acc = function
        | [] -> Ok (List.concat (List.rev acc))
        | r :: rest -> (
            match diff_record r with
            | Ok ds -> all (ds :: acc) rest
            | Error _ as e -> e)
      in
      all [] records

let regressions ~max_regress deltas =
  List.filter (fun d -> d.d_pct > max_regress) deltas

let render_deltas deltas =
  let module Table = Sekitei_util.Ascii_table in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "scenario"; "metric"; "baseline"; "current"; "delta %" ]
  in
  List.iter
    (fun d ->
      Table.add_row t
        [
          d.d_scenario;
          d.d_metric;
          Table.float_cell d.d_base;
          Table.float_cell d.d_cur;
          (if Float.is_finite d.d_pct then Printf.sprintf "%+.1f" d.d_pct
           else "+inf");
        ])
    deltas;
  Table.render t

(* Telemetry unit tests: span nesting, the memory sink's event record,
   the JSONL encoding round-trip, and the shared JSON parser itself. *)

module Telemetry = Sekitei_telemetry.Telemetry
module Json = Sekitei_util.Json
module Planner = Sekitei_core.Planner
module Media = Sekitei_domains.Media
module Scenarios = Sekitei_harness.Scenarios

let with_memory f =
  let sink, events = Telemetry.memory () in
  let t = Telemetry.create [ sink ] in
  f t;
  Telemetry.close t;
  events ()

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  let events =
    with_memory (fun t ->
        Telemetry.with_span t "outer" (fun () ->
            Telemetry.with_span t "inner" (fun () -> ());
            Telemetry.with_span t "inner" (fun () -> ())))
  in
  (* Every begin has a matching end, and at each point the currently open
     ids form a stack (a child always ends before its parent). *)
  let open_ids = ref [] in
  let max_depth = ref 0 in
  List.iter
    (function
      | Telemetry.Span_begin { id; parent; _ } ->
          let expected_parent =
            match !open_ids with [] -> 0 | p :: _ -> p
          in
          Alcotest.(check int) "parent is innermost open" expected_parent parent;
          open_ids := id :: !open_ids;
          max_depth := max !max_depth (List.length !open_ids)
      | Telemetry.Span_end { id; _ } -> (
          match !open_ids with
          | top :: rest ->
              Alcotest.(check int) "ends innermost open span" top id;
              open_ids := rest
          | [] -> Alcotest.fail "span_end with no open span")
      | _ -> ())
    events;
  Alcotest.(check (list int)) "all spans closed" [] !open_ids;
  Alcotest.(check int) "nested two deep" 2 !max_depth

let test_span_tree_shape () =
  let events =
    with_memory (fun t ->
        Telemetry.with_span t "root" (fun () ->
            Telemetry.with_span t "a" (fun () -> ());
            Telemetry.with_span t "b" (fun () -> ())))
  in
  let begins =
    List.filter_map
      (function
        | Telemetry.Span_begin { id; parent; name; _ } -> Some (id, parent, name)
        | _ -> None)
      events
  in
  match begins with
  | [ (root_id, 0, "root"); (a_id, pa, "a"); (_, pb, "b") ] ->
      Alcotest.(check int) "a under root" root_id pa;
      Alcotest.(check int) "b under root" root_id pb;
      Alcotest.(check bool) "ids distinct" true (root_id <> a_id)
  | _ -> Alcotest.failf "unexpected span_begin events (%d)" (List.length begins)

let test_end_span_duration () =
  let sink, _ = Telemetry.memory () in
  let t = Telemetry.create [ sink ] in
  let sp = Telemetry.begin_span t "work" in
  let d = Telemetry.end_span t sp in
  Alcotest.(check bool) "duration non-negative" true (d >= 0.);
  (* The null handle still measures durations. *)
  let sp = Telemetry.begin_span Telemetry.null "work" in
  let d = Telemetry.end_span Telemetry.null sp in
  Alcotest.(check bool) "null duration non-negative" true (d >= 0.)

(* ---------------- null handle ---------------- *)

let test_null_is_inert () =
  Alcotest.(check bool) "null disabled" false (Telemetry.enabled Telemetry.null);
  Alcotest.(check int) "no heartbeat" 0
    (Telemetry.progress_interval Telemetry.null);
  Telemetry.count Telemetry.null "x" 5

(* ---------------- JSONL encoding ---------------- *)

let test_event_json_roundtrip () =
  let ev =
    Telemetry.Span_end
      {
        id = 7;
        name = "q";
        t_ms = 1.5;
        dur_ms = 0.25;
        attrs = [ ("n", Telemetry.Int 3); ("ok", Telemetry.Bool true) ];
      }
  in
  let s = Json.to_string (Telemetry.json_of_event ev) in
  match Json.of_string s with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok j ->
      Alcotest.(check (option string)) "ev" (Some "span_end")
        (Option.bind (Json.member "ev" j) Json.to_str);
      Alcotest.(check (option int)) "id" (Some 7)
        (Option.bind (Json.member "id" j) Json.to_int);
      Alcotest.(check (option int)) "attr n" (Some 3)
        (Option.bind (Json.member "n" j) Json.to_int)

let test_json_parser () =
  (match Json.of_string "{\"a\": [1, 2.5, \"x\\n\"], \"b\": null}" with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "x\n" ]); ("b", Json.Null) ]) ->
      ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Json.of_string "{\"a\": }" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let test_json_unicode () =
  let parse_str s =
    match Json.of_string s with
    | Ok (Json.Str v) -> v
    | Ok j -> Alcotest.failf "not a string: %s" (Json.to_string j)
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  (* BMP escape decodes to real UTF-8 (not '?') *)
  Alcotest.(check string) "latin-1 escape" "caf\xc3\xa9"
    (parse_str "\"caf\\u00e9\"");
  Alcotest.(check string) "CJK escape" "\xe6\xbc\xa2" (parse_str "\"\\u6f22\"");
  (* surrogate pair combines into one supplementary code point (U+1F600) *)
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80"
    (parse_str "\"\\ud83d\\ude00\"");
  (* unpaired surrogates become U+FFFD, never a mangled byte *)
  Alcotest.(check string) "lone high surrogate" "\xef\xbf\xbdx"
    (parse_str "\"\\ud83dx\"");
  Alcotest.(check string) "lone low surrogate" "\xef\xbf\xbd"
    (parse_str "\"\\ude00\"");
  (* raw UTF-8 written by the emitter survives a round trip *)
  let s = "na\xc3\xafve \xe6\xbc\xa2\xf0\x9f\x98\x80" in
  (match Json.of_string (Json.to_string (Json.Str s)) with
  | Ok (Json.Str v) -> Alcotest.(check string) "round trip" s v
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  match Json.of_string "\"\\ud83d\\uqqqq\"" with
  | Ok _ -> Alcotest.fail "bad hex accepted"
  | Error _ -> ()

(* ---------------- planner integration ---------------- *)

(* A traced run must emit a well-formed phase tree: plan at the root,
   the four phase spans under it, and leveling under compile. *)
let test_planner_span_tree () =
  let sink, events = Telemetry.memory () in
  let telemetry = Telemetry.create [ sink ] in
  let sc = Scenarios.tiny () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  let report =
    Planner.plan
      (Planner.request ~telemetry sc.Scenarios.topo sc.Scenarios.app ~leveling)
  in
  Telemetry.close telemetry;
  Alcotest.(check bool) "plan found" true (Result.is_ok report.Planner.result);
  let begins =
    List.filter_map
      (function
        | Telemetry.Span_begin { id; parent; name; _ } -> Some (id, parent, name)
        | _ -> None)
      (events ())
  in
  let find name =
    List.find_map
      (fun (id, parent, n) -> if n = name then Some (id, parent) else None)
      begins
  in
  match (find "plan", find "compile", find "leveling") with
  | Some (plan_id, 0), Some (compile_id, compile_parent), Some (_, leveling_parent)
    ->
      Alcotest.(check int) "compile under plan" plan_id compile_parent;
      Alcotest.(check int) "leveling under compile" compile_id leveling_parent;
      List.iter
        (fun phase ->
          match find phase with
          | Some (_, parent) ->
              Alcotest.(check int) (phase ^ " under plan") plan_id parent
          | None -> Alcotest.failf "missing %s span" phase)
        [ "plrg"; "slrg"; "rg" ]
  | _ -> Alcotest.fail "missing plan/compile/leveling spans"

(* Phase timings must be populated even with the null telemetry. *)
let test_null_report_phases () =
  let sc = Scenarios.tiny () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  let r =
    Planner.plan (Planner.request sc.Scenarios.topo sc.Scenarios.app ~leveling)
  in
  let ph = r.Planner.phases in
  Alcotest.(check bool) "rg time measured" true (ph.Planner.rg.Planner.ms >= 0.);
  Alcotest.(check bool) "slrg time measured" true
    (ph.Planner.slrg.Planner.ms >= 0.)

(* The JSONL sink must flush on every progress event so a live trace can
   be tailed mid-search: the heartbeat line has to be on disk before the
   channel is closed. *)
let test_jsonl_flushes_on_progress () =
  let path = Filename.temp_file "sekitei_jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let t = Telemetry.create [ Telemetry.jsonl oc ] in
      Telemetry.progress t "rg.progress" [ ("expanded", Telemetry.Int 7) ];
      (* Read back through an independent descriptor, before close. *)
      let ic = open_in path in
      let line =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> try input_line ic with End_of_file -> "")
      in
      Alcotest.(check bool) "progress line on disk before close" true
        (String.length line > 0);
      (match Sekitei_util.Json.of_string line with
      | Ok j ->
          Alcotest.(check (option string))
            "is the progress event" (Some "progress")
            (Option.bind (Sekitei_util.Json.member "ev" j)
               Sekitei_util.Json.to_str)
      | Error e -> Alcotest.failf "unparseable flushed line: %s" e);
      Telemetry.close t;
      close_out oc)

let suite =
  [
    Alcotest.test_case "spans well nested" `Quick test_span_nesting;
    Alcotest.test_case "jsonl flushes on progress" `Quick
      test_jsonl_flushes_on_progress;
    Alcotest.test_case "memory sink span tree" `Quick test_span_tree_shape;
    Alcotest.test_case "end_span returns duration" `Quick test_end_span_duration;
    Alcotest.test_case "null handle inert" `Quick test_null_is_inert;
    Alcotest.test_case "event json roundtrip" `Quick test_event_json_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "json unicode" `Quick test_json_unicode;
    Alcotest.test_case "planner span tree" `Quick test_planner_span_tree;
    Alcotest.test_case "null report phases" `Quick test_null_report_phases;
  ]

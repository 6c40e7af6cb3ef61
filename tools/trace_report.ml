(* Summarize a JSONL telemetry trace (sekitei plan --trace out.jsonl)
   into an ASCII report: the span tree with call counts and self/total
   wall time, the counters, and the progress heartbeat count.  The
   planner emits each count once per plan request, with that request's
   value, so the counter table shows the last request of the trace (the
   last value per name wins).

   Sibling spans with the same name are aggregated into one tree row
   (e.g. the hundreds of slrg.query spans under rg), so the report stays
   readable on large searches.

   With --self the tree is replaced by a flat per-span-name profile of
   *self* time (exclusive of children), sorted hottest first.  The tree
   view charges a child's wall time to every enclosing span — the
   slrg.query spans run inside rg, so their time shows up in both rows —
   whereas the self profile counts every millisecond exactly once. *)

module Json = Sekitei_util.Json
module Table = Sekitei_util.Ascii_table
module Histogram = Sekitei_util.Histogram

type span = {
  name : string;
  parent : int;
  mutable dur_ms : float;
  mutable ended : bool;
}

type trace = {
  spans : (int, span) Hashtbl.t;  (* id -> span; roots have parent 0 *)
  mutable counters : (string * int) list;
      (* last value per name wins: the trace's last request *)
  mutable progress : int;
  mutable bad_lines : int;
  mutable truncated_tail : bool;
      (* the file's last line failed to parse: a flight dump or killed
         trace cut an object mid-line; reported separately from mid-file
         junk so postmortems know the tail is missing, not corrupt *)
  mutable flight : (int * int * int) option;
      (* (capacity, recorded, dropped) from a flight-recorder dump's
         meta line: the trace is a postmortem ring, oldest events may
         have rotated out *)
  mutable next_synth_id : int;  (* fresh ids for synthesized spans *)
  mutable plan_failure : string option;
      (* "failure" attribute of a plan span's end event: the planner
         attaches the rendered failure reason there when a run returns
         no plan, so the report can lead with the outcome *)
}

let get_str j k = Option.bind (Json.member k j) Json.to_str
let get_int j k = Option.bind (Json.member k j) Json.to_int
let get_float j k = Option.bind (Json.member k j) Json.to_float

let set_assoc k v l = (k, v) :: List.remove_assoc k l

let add_event tr j =
  match get_str j "ev" with
  | Some "span_begin" -> (
      match (get_int j "id", get_str j "name", get_int j "parent") with
      | Some id, Some name, Some parent ->
          Hashtbl.replace tr.spans id
            { name; parent; dur_ms = 0.; ended = false }
      | _ -> tr.bad_lines <- tr.bad_lines + 1)
  | Some "span_end" -> (
      (match (get_str j "name", get_str j "failure") with
      | Some "plan", Some reason -> tr.plan_failure <- Some reason
      | _ -> ());
      match (get_int j "id", get_float j "dur_ms") with
      | Some id, Some dur_ms -> (
          match Hashtbl.find_opt tr.spans id with
          | Some sp ->
              sp.dur_ms <- dur_ms;
              sp.ended <- true
          | None -> (
              (* In a flight-recorder dump the matching span_begin may
                 have rotated out of the ring: synthesize a root-level
                 span from the end event (name and duration are on it)
                 instead of dropping the sample. *)
              match (tr.flight, get_str j "name") with
              | Some _, Some name ->
                  tr.next_synth_id <- tr.next_synth_id - 1;
                  Hashtbl.replace tr.spans tr.next_synth_id
                    { name; parent = 0; dur_ms; ended = true }
              | _ -> tr.bad_lines <- tr.bad_lines + 1))
      | _ -> tr.bad_lines <- tr.bad_lines + 1)
  | Some "flight_dump" ->
      tr.flight <-
        Some
          ( Option.value ~default:0 (get_int j "capacity"),
            Option.value ~default:0 (get_int j "recorded"),
            Option.value ~default:0 (get_int j "dropped") )
  | Some "counter" -> (
      match (get_str j "name", get_int j "total") with
      | Some name, Some total -> tr.counters <- set_assoc name total tr.counters
      | _ -> tr.bad_lines <- tr.bad_lines + 1)
  | Some "progress" -> tr.progress <- tr.progress + 1
  | _ -> tr.bad_lines <- tr.bad_lines + 1

let load path =
  let tr =
    {
      spans = Hashtbl.create 256;
      counters = [];
      progress = 0;
      bad_lines = 0;
      truncated_tail = false;
      flight = None;
      next_synth_id = 0;
      plan_failure = None;
    }
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          tr.truncated_tail <- false;
          if line <> "" then
            match Json.of_string line with
            | Ok j -> add_event tr j
            | Error _ ->
                (* Stays set if this turns out to be the last line: a
                   dump or kill cut the object mid-write. *)
                tr.truncated_tail <- true;
                tr.bad_lines <- tr.bad_lines + 1
        done
      with End_of_file -> ());
  tr

(* One aggregated tree row: same-named siblings merged. *)
type agg = {
  agg_name : string;
  calls : int;
  total_ms : float;
  children : agg list;
}

let aggregate tr =
  let children_of = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id (sp : span) ->
      let prev =
        Option.value (Hashtbl.find_opt children_of sp.parent) ~default:[]
      in
      Hashtbl.replace children_of sp.parent ((id, sp) :: prev))
    tr.spans;
  let rec group ids =
    let by_name = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (id, (sp : span)) ->
        if not (Hashtbl.mem by_name sp.name) then order := sp.name :: !order;
        let prev =
          Option.value (Hashtbl.find_opt by_name sp.name) ~default:[]
        in
        Hashtbl.replace by_name sp.name ((id, sp) :: prev))
      ids;
    List.rev_map
      (fun name ->
        let members = Hashtbl.find by_name name in
        let kids =
          List.concat_map
            (fun (id, _) ->
              Option.value (Hashtbl.find_opt children_of id) ~default:[])
            members
        in
        {
          agg_name = name;
          calls = List.length members;
          total_ms = List.fold_left (fun a (_, sp) -> a +. sp.dur_ms) 0. members;
          children = group kids;
        })
      !order
    |> List.sort (fun a b -> Float.compare b.total_ms a.total_ms)
  in
  group (Option.value (Hashtbl.find_opt children_of 0) ~default:[])

let render_tree roots =
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "span"; "calls"; "total ms"; "self ms" ]
  in
  let rec walk depth agg =
    let child_ms =
      List.fold_left (fun a c -> a +. c.total_ms) 0. agg.children
    in
    Table.add_row t
      [
        String.make (2 * depth) ' ' ^ agg.agg_name;
        string_of_int agg.calls;
        Printf.sprintf "%.2f" agg.total_ms;
        Printf.sprintf "%.2f" (Float.max 0. (agg.total_ms -. child_ms));
      ];
    List.iter (walk (depth + 1)) agg.children
  in
  List.iter (walk 0) roots;
  Table.render t

(* Flat self-time profile: per span instance, self = duration minus the
   sum of its direct children's durations; aggregated per name across
   the whole trace.  Negative instance self times (clock granularity on
   sub-microsecond spans) are clamped to zero. *)
let render_self tr =
  let child_ms = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (sp : span) ->
      let prev = Option.value (Hashtbl.find_opt child_ms sp.parent) ~default:0. in
      Hashtbl.replace child_ms sp.parent (prev +. sp.dur_ms))
    tr.spans;
  let by_name = Hashtbl.create 16 in
  Hashtbl.iter
    (fun id (sp : span) ->
      let kids = Option.value (Hashtbl.find_opt child_ms id) ~default:0. in
      let self = Float.max 0. (sp.dur_ms -. kids) in
      let calls, total, self_sum =
        Option.value (Hashtbl.find_opt by_name sp.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace by_name sp.name
        (calls + 1, total +. sp.dur_ms, self_sum +. self))
    tr.spans;
  let rows =
    Hashtbl.fold (fun name (calls, total, self) acc ->
        (name, calls, total, self) :: acc)
      by_name []
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)
  in
  let grand_self =
    List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0. rows
  in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "span"; "calls"; "total ms"; "self ms"; "self %" ]
  in
  List.iter
    (fun (name, calls, total, self) ->
      Table.add_row t
        [
          name;
          string_of_int calls;
          Printf.sprintf "%.2f" total;
          Printf.sprintf "%.2f" self;
          (if grand_self > 0. then
             Printf.sprintf "%.1f" (100. *. self /. grand_self)
           else "-");
        ])
    rows;
  Table.render t

(* Span-duration distributions, through the same log-bucketed histograms
   the metric registry exposes: a name spanned many times (slrg.query
   under a large search) gets p50/p90/p99/max instead of only the totals
   the tree shows.  Names with a single ended instance are omitted — a
   one-sample distribution is just the tree row again. *)
let render_histograms tr =
  let by_name = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (sp : span) ->
      if sp.ended then
        let h =
          match Hashtbl.find_opt by_name sp.name with
          | Some h -> h
          | None ->
              let h = Histogram.create () in
              Hashtbl.add by_name sp.name h;
              h
        in
        Histogram.add h sp.dur_ms)
    tr.spans;
  let rows =
    Hashtbl.fold
      (fun name h acc ->
        if Histogram.count h >= 2 then (name, h) :: acc else acc)
      by_name []
    |> List.sort (fun (_, a) (_, b) ->
           Float.compare (Histogram.sum b) (Histogram.sum a))
  in
  if rows = [] then ""
  else begin
    let t =
      Table.create
        ~aligns:
          [
            Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
            Table.Right;
          ]
        [ "span durations"; "count"; "p50 ms"; "p90 ms"; "p99 ms"; "max ms" ]
    in
    List.iter
      (fun (name, h) ->
        let p q = Printf.sprintf "%.3f" (Histogram.percentile h q) in
        Table.add_row t
          [
            name;
            string_of_int (Histogram.count h);
            p 0.50;
            p 0.90;
            p 0.99;
            Printf.sprintf "%.3f" (Histogram.max_value h);
          ])
      rows;
    "\n" ^ Table.render t
  end

let render_counters tr =
  if tr.counters = [] then ""
  else begin
    let t =
      Table.create ~aligns:[ Table.Left; Table.Right ] [ "counter"; "total" ]
    in
    List.sort (fun (_, a) (_, b) -> Int.compare b a) tr.counters
    |> List.iter (fun (name, total) ->
           Table.add_row t [ name; string_of_int total ]);
    "\n" ^ Table.render t
  end

let () =
  let self_mode, path =
    match Sys.argv with
    | [| _; path |] -> (false, Some path)
    | [| _; "--self"; path |] | [| _; path; "--self" |] -> (true, Some path)
    | _ -> (false, None)
  in
  match path with
  | Some path ->
      let tr =
        try load path with
        | Sys_error _ when Sys.file_exists path && Sys.is_directory path ->
            (* Reading a directory fails without naming it. *)
            Printf.eprintf "%s: Is a directory\n" path;
            exit 2
        | Sys_error msg ->
            Printf.eprintf "trace_report: %s\n" msg;
            exit 2
      in
      if Hashtbl.length tr.spans = 0 then begin
        Printf.eprintf "%s: no spans found\n" path;
        exit 1
      end;
      (match tr.flight with
      | Some (capacity, recorded, dropped) ->
          Printf.printf
            "flight-recorder dump: %d event(s) recorded, ring capacity %d, \
             %d rotated out\n\n"
            recorded capacity dropped
      | None -> ());
      (match tr.plan_failure with
      | Some reason -> Printf.printf "no plan: %s\n\n" reason
      | None -> ());
      if self_mode then print_string (render_self tr)
      else print_string (render_tree (aggregate tr));
      print_string (render_histograms tr);
      print_string (render_counters tr);
      if tr.progress > 0 then
        Printf.printf "\n%d progress heartbeat(s)\n" tr.progress;
      if tr.truncated_tail then
        Printf.printf
          "\nwarning: trailing line truncated mid-object (dump or killed \
           trace) — skipped\n";
      let mid_junk = tr.bad_lines - if tr.truncated_tail then 1 else 0 in
      if mid_junk > 0 then
        Printf.printf "\nwarning: %d unparseable line(s) skipped\n" mid_junk
  | None ->
      Printf.eprintf "usage: %s [--self] TRACE.jsonl\n" Sys.argv.(0);
      exit 2

(* Zero-dependency tracing/metrics for the planner phases.

   The design pivot is the disabled path: [null] carries no sinks, and
   every emitting operation starts with a single [active] branch, so
   threading telemetry through the hot search loops costs one predictable
   branch per emit when tracing is off.  Span handles still carry a
   monotonic start time even when disabled, because the planner's phase
   report is populated from span durations whether or not any sink
   listens.

   A handle may also arm a {!Flight} recorder: a fixed-capacity ring that
   retains the last N events at the cost of one array store each, with no
   channel or allocation on the recording path, so it is safe to leave on
   in production and dump only when a plan fails. *)

module Timer = Sekitei_util.Timer
module Json = Sekitei_util.Json

type value = Bool of bool | Int of int | Float of float | Str of string

type event =
  | Span_begin of { id : int; parent : int; name : string; t_ms : float }
  | Span_end of {
      id : int;
      name : string;
      t_ms : float;
      dur_ms : float;
      attrs : (string * value) list;
    }
  | Counter of { name : string; total : int; t_ms : float }
  | Gauge of { name : string; value : float; t_ms : float }
  | Progress of { name : string; t_ms : float; attrs : (string * value) list }

type sink = { emit : event -> unit; close : unit -> unit }

(* ---------------- JSON encoding ----------------

   Defined before the sinks and the flight recorder, which both write
   it. *)

let json_of_value = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s

let json_of_event ev =
  let attr_fields attrs = List.map (fun (k, v) -> (k, json_of_value v)) attrs in
  let obj = function
    | Span_begin { id; parent; name; t_ms } ->
        [
          ("ev", Json.Str "span_begin");
          ("id", Json.Int id);
          ("parent", Json.Int parent);
          ("name", Json.Str name);
          ("t_ms", Json.Float t_ms);
        ]
    | Span_end { id; name; t_ms; dur_ms; attrs } ->
        [
          ("ev", Json.Str "span_end");
          ("id", Json.Int id);
          ("name", Json.Str name);
          ("t_ms", Json.Float t_ms);
          ("dur_ms", Json.Float dur_ms);
        ]
        @ attr_fields attrs
    | Counter { name; total; t_ms } ->
        [
          ("ev", Json.Str "counter");
          ("name", Json.Str name);
          ("total", Json.Int total);
          ("t_ms", Json.Float t_ms);
        ]
    | Gauge { name; value; t_ms } ->
        [
          ("ev", Json.Str "gauge");
          ("name", Json.Str name);
          ("value", Json.Float value);
          ("t_ms", Json.Float t_ms);
        ]
    | Progress { name; t_ms; attrs } ->
        [
          ("ev", Json.Str "progress");
          ("name", Json.Str name);
          ("t_ms", Json.Float t_ms);
        ]
        @ attr_fields attrs
  in
  Json.Obj (obj ev)

(* ---------------- flight recorder ---------------- *)

module Flight = struct
  type t = {
    capacity : int;
    ring : event array;
    mutable total : int;  (* events ever recorded; ring slot = total mod capacity *)
    dump_path : string option;
  }

  (* Ring slots start filled with a harmless placeholder that [events]
     never exposes (only the first [min total capacity] logical slots are
     read back). *)
  let placeholder = Counter { name = ""; total = 0; t_ms = 0. }

  let create ?(capacity = 512) ?dump_path () =
    if capacity < 1 then invalid_arg "Flight.create: capacity < 1";
    { capacity; ring = Array.make capacity placeholder; total = 0; dump_path }

  let capacity fl = fl.capacity
  let recorded fl = fl.total
  let dump_path fl = fl.dump_path

  let record fl ev =
    fl.ring.(fl.total mod fl.capacity) <- ev;
    fl.total <- fl.total + 1

  let events fl =
    let n = min fl.total fl.capacity in
    let first = fl.total - n in
    List.init n (fun i -> fl.ring.((first + i) mod fl.capacity))

  (* First line is a meta object so a reader knows how much history was
     dropped; the rest is ordinary telemetry JSONL (oldest first). *)
  let dump fl oc =
    let n = min fl.total fl.capacity in
    let meta =
      Json.Obj
        [
          ("ev", Json.Str "flight_dump");
          ("capacity", Json.Int fl.capacity);
          ("recorded", Json.Int fl.total);
          ("dropped", Json.Int (fl.total - n));
        ]
    in
    output_string oc (Json.to_string meta);
    output_char oc '\n';
    List.iter
      (fun ev ->
        output_string oc (Json.to_string (json_of_event ev));
        output_char oc '\n')
      (events fl);
    flush oc

  let dump_to_path fl =
    match fl.dump_path with
    | None -> None
    | Some path ->
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> dump fl oc);
        Some path
end

(* ---------------- handles ---------------- *)

type t = {
  sinks : sink list;
  flight : Flight.t option;
  active : bool;  (* sinks <> [] || flight armed; the one hot-path branch *)
  origin : Timer.t;
  mutable next_id : int;
  mutable open_stack : int list;  (** ids of currently open spans *)
}

type span = { span_id : int; span_name : string; started : Timer.t }

let create ?flight sinks =
  {
    sinks;
    flight;
    active = sinks <> [] || flight <> None;
    origin = Timer.start ();
    next_id = 1;
    open_stack = [];
  }

let null = create []
let enabled t = t.active
let flight t = t.flight

(* Expansions between two RG progress heartbeats. *)
let progress_interval t = if t.active then 1000 else 0
let elapsed_ms t = Timer.elapsed_ms t.origin

let emit t ev =
  (match t.flight with Some fl -> Flight.record fl ev | None -> ());
  List.iter (fun s -> s.emit ev) t.sinks

(* ---------------- spans ---------------- *)

let begin_span t name =
  let sp = { span_id = 0; span_name = name; started = Timer.start () } in
  if not t.active then sp
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_stack with [] -> 0 | p :: _ -> p in
    t.open_stack <- id :: t.open_stack;
    emit t (Span_begin { id; parent; name; t_ms = elapsed_ms t });
    { sp with span_id = id }
  end

let end_span ?(attrs = []) t sp =
  let dur_ms = Timer.elapsed_ms sp.started in
  if t.active then begin
    (* Pop through to this span's id: tolerates a child span leaked by an
       exception so the tree stays consistent for sinks. *)
    let rec pop = function
      | [] -> []
      | id :: rest -> if id = sp.span_id then rest else pop rest
    in
    t.open_stack <- pop t.open_stack;
    emit t
      (Span_end
         { id = sp.span_id; name = sp.span_name; t_ms = elapsed_ms t; dur_ms; attrs })
  end;
  dur_ms

let with_span ?attrs t name f =
  let sp = begin_span t name in
  Fun.protect
    ~finally:(fun () -> ignore (end_span ?attrs t sp))
    f

(* ---------------- counters / gauges / progress ---------------- *)

let count t name total =
  if t.active then emit t (Counter { name; total; t_ms = elapsed_ms t })

let gauge t name value =
  if t.active then emit t (Gauge { name; value; t_ms = elapsed_ms t })

let progress t name attrs =
  if t.active then emit t (Progress { name; t_ms = elapsed_ms t; attrs })

let close t = List.iter (fun s -> s.close ()) t.sinks

(* ---------------- sinks ---------------- *)

let sink ?(close = fun () -> ()) emit = { emit; close }

let memory () =
  let events = ref [] in
  ( { emit = (fun ev -> events := ev :: !events); close = (fun () -> ()) },
    fun () -> List.rev !events )

let locked s =
  let m = Mutex.create () in
  let guarded f x =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f x)
  in
  { emit = guarded s.emit; close = (fun () -> guarded s.close ()) }

let jsonl oc =
  (* Track span nesting so the channel is flushed whenever a root span
     closes: a short traced run (one plan) reaches the file even if the
     process is killed before [close], and a long run flushes between
     requests rather than mid-span. *)
  let depth = ref 0 in
  {
    emit =
      (fun ev ->
        output_string oc (Json.to_string (json_of_event ev));
        output_char oc '\n';
        match ev with
        | Span_begin _ -> Stdlib.incr depth
        | Span_end _ ->
            depth := Stdlib.max 0 (!depth - 1);
            if !depth = 0 then flush oc
        | Progress _ ->
            (* Progress events are the live heartbeat of a long search;
               flush so tailing the trace file shows them as they happen
               instead of whenever the channel buffer fills. *)
            flush oc
        | _ -> ());
    close = (fun () -> flush oc);
  }

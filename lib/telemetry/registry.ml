(* Named metric registry with per-domain shards.

   Every recording domain gets its own shard — a trio of hashtables
   keyed by metric name — resolved once per handle creation, so a
   Domain_pool worker records into private cells with no cross-domain
   contention: incrementing a counter is an [int ref] bump, observing a
   latency is a Histogram array store.  Mutexes guard only the
   structural operations (finding/creating a shard, creating a metric in
   a shard, walking the tables for a snapshot); the recording fast path
   takes no lock.

   [snapshot] merges shards into one coherent view: counters sum,
   histograms merge bucket-wise (associative, so shard order is
   irrelevant), and gauges resolve to the most recent write anywhere
   (ordered by a global atomic sequence, not wall clock).  Recording
   races only with a concurrent snapshot, which may miss increments
   still in flight; once recorders are quiescent a snapshot is exact —
   identical to what single-domain recording would have produced. *)

module Histogram = Sekitei_util.Histogram

type counter = int ref
type gauge = { g_seq : int Atomic.t; cell : (float * int) ref }
type histogram = Histogram.t

type shard = {
  lock : Mutex.t;  (* guards metric creation and snapshot walks *)
  counters : (string, counter) Hashtbl.t;
  gauges : (string, (float * int) ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

type t = {
  seq : int Atomic.t;  (* global gauge-write ordering *)
  reg_lock : Mutex.t;  (* guards the shard table *)
  shards : (int, shard) Hashtbl.t;  (* keyed by Domain id *)
}

let create () =
  { seq = Atomic.make 1; reg_lock = Mutex.create (); shards = Hashtbl.create 8 }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let shard_for t =
  let id = (Domain.self () :> int) in
  with_lock t.reg_lock (fun () ->
      match Hashtbl.find_opt t.shards id with
      | Some s -> s
      | None ->
          let s =
            {
              lock = Mutex.create ();
              counters = Hashtbl.create 16;
              gauges = Hashtbl.create 16;
              histograms = Hashtbl.create 16;
            }
          in
          Hashtbl.add t.shards id s;
          s)

let find_or_create shard table name make =
  with_lock shard.lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some v -> v
      | None ->
          let v = make () in
          Hashtbl.add table name v;
          v)

(* ---------------- handles ---------------- *)

let counter t name =
  let shard = shard_for t in
  find_or_create shard shard.counters name (fun () -> ref 0)

let incr c n = c := !c + n

let gauge t name =
  let shard = shard_for t in
  let cell = find_or_create shard shard.gauges name (fun () -> ref (Float.nan, 0)) in
  { g_seq = t.seq; cell }

let set g v = g.cell := (v, Atomic.fetch_and_add g.g_seq 1)

let histogram t name =
  let shard = shard_for t in
  find_or_create shard shard.histograms name (fun () -> Histogram.create ())

let observe h v = Histogram.add h v

(* name-resolved conveniences for cold paths *)

let count t name n = incr (counter t name) n
let set_gauge t name v = set (gauge t name) v
let observe_ms t name v = observe (histogram t name) v

(* ---------------- snapshot ---------------- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Histogram.t) list;
}

let snapshot t =
  let shards =
    with_lock t.reg_lock (fun () ->
        Hashtbl.fold (fun _ s acc -> s :: acc) t.shards [])
  in
  let counters : (string, int ref) Hashtbl.t = Hashtbl.create 32 in
  let gauges : (string, (float * int) ref) Hashtbl.t = Hashtbl.create 16 in
  let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun shard ->
      with_lock shard.lock (fun () ->
          Hashtbl.iter
            (fun name c ->
              match Hashtbl.find_opt counters name with
              | Some acc -> acc := !acc + !c
              | None -> Hashtbl.add counters name (ref !c))
            shard.counters;
          Hashtbl.iter
            (fun name cell ->
              let (_, seq) as entry = !cell in
              match Hashtbl.find_opt gauges name with
              | Some acc -> if seq > snd !acc then acc := entry
              | None -> Hashtbl.add gauges name (ref entry))
            shard.gauges;
          Hashtbl.iter
            (fun name h ->
              (* [copy] under the shard lock so the merge below never
                 reads a bucket array mid-growth. *)
              let h = Histogram.copy h in
              match Hashtbl.find_opt histograms name with
              | Some acc -> Hashtbl.replace histograms name (Histogram.merge acc h)
              | None -> Hashtbl.add histograms name h)
            shard.histograms))
    shards;
  let sorted fold = List.sort (fun (a, _) (b, _) -> String.compare a b) fold in
  {
    counters =
      sorted (Hashtbl.fold (fun n c acc -> (n, !c) :: acc) counters []);
    gauges =
      sorted (Hashtbl.fold (fun n g acc -> (n, fst !g) :: acc) gauges []);
    histograms =
      sorted (Hashtbl.fold (fun n h acc -> (n, h) :: acc) histograms []);
  }

let counters snap = snap.counters
let gauges snap = snap.gauges
let histograms snap = snap.histograms

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some n -> n | None -> 0

let gauge_value snap name = List.assoc_opt name snap.gauges
let histogram_value snap name = List.assoc_opt name snap.histograms

(* Named metric registry: three name-keyed tables under one lock.

   Every recording call takes the lock once, finds or creates its
   metric and updates it, so several domains may record into one
   registry.  [snapshot] copies and sorts the tables under the same
   lock: it never sees a histogram mid-update, and recording after it
   leaves it unchanged. *)

module Histogram = Sekitei_util.Histogram

type t = {
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 16;
  }

let count t name n =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c := !c + n
      | None -> Hashtbl.add t.counters name (ref n))

let set_gauge t name v =
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.gauges name v)

let observe_ms t name v =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.histograms name with
      | Some h -> Histogram.add h v
      | None ->
          let h = Histogram.create () in
          Histogram.add h v;
          Hashtbl.add t.histograms name h)

(* ---------------- snapshot ---------------- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Histogram.t) list;
}

let sorted table value =
  Hashtbl.fold (fun name v acc -> (name, value v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot (t : t) =
  Mutex.protect t.lock (fun () ->
      {
        counters = sorted t.counters ( ! );
        gauges = sorted t.gauges Fun.id;
        histograms = sorted t.histograms Histogram.copy;
      })

let counters snap = snap.counters
let gauges snap = snap.gauges
let histograms snap = snap.histograms

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some n -> n | None -> 0

let gauge_value snap name = List.assoc_opt name snap.gauges
let histogram_value snap name = List.assoc_opt name snap.histograms

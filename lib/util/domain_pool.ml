(* Fixed-size domain pool for shared-nothing batch parallelism.

   The batch planner maps one planning request per work item; items are
   independent (each builds its own problem, oracle, and search state),
   so the pool is deliberately minimal: an atomic next-item counter that
   workers race on (dynamic load balancing — planning times vary by
   orders of magnitude between instances), a results slot array indexed
   by item position (output order is input order regardless of which
   domain ran what), and first-failure exception propagation with the
   original backtrace.

   [jobs <= 1] short-circuits to a plain sequential [List.map] on the
   calling domain — no domains are spawned, so [~jobs:1] is byte-for-byte
   the sequential semantics (the determinism escape hatch). *)

type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let default_jobs () = Domain.recommended_domain_count ()

let map ?(jobs = default_jobs ()) f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let jobs = min jobs n in
  if jobs <= 1 then List.map f xs
  else begin
    let slots = Array.make n Pending in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        slots.(i) <-
          (match f items.(i) with
          | v -> Done v
          | exception e -> Failed (e, Printexc.get_raw_backtrace ()));
        worker ()
      end
    in
    (* jobs - 1 spawned domains; the calling domain is the last worker,
       so [jobs] counts total concurrency, not extra domains. *)
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (* Re-raise the earliest failure (deterministic choice independent of
       worker scheduling); later items may have completed or failed too —
       their results are discarded, like List.map on an exception. *)
    Array.iter
      (function
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending | Done _ -> ())
      slots;
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Pending | Failed _ -> assert false (* all joined, none failed *))
         slots)
  end

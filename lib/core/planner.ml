(* The planner: the session engine plus its one-shot entry points, each
   a thin wrapper over throwaway sessions, so [plan (request topo app
   ~leveling)] behaves — spans, timings, stats — exactly like the first
   request of a long-lived {!Session.t}. *)

include Session

let plan ?adjust ?metrics (req : request) =
  Session.plan (Session.create ?adjust ?metrics req)

let plan_batch ?jobs (reqs : request list) =
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | _ -> Sekitei_util.Domain_pool.default_jobs ()
  in
  (* Shared-nothing: each request gets its own throwaway session —
     problem, oracle, ctx — so workers touch no common mutable state
     except the telemetry handles the caller put in the requests, which
     are the caller's contract (one handle per request). *)
  Sekitei_util.Domain_pool.map ~jobs plan reqs

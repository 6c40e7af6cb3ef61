(* The planner: the session engine plus its one-shot entry points, each
   a thin wrapper over throwaway sessions, so [plan (request topo app
   ~leveling)] behaves — spans, timings, stats — exactly like the first
   request of a long-lived {!Session.t}. *)

include Session

let plan ?adjust ?metrics (req : request) =
  Session.plan (Session.create ?adjust ?metrics req)

let plan_batch ?adjust ?jobs ?metrics (reqs : request list) =
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | _ -> Sekitei_util.Domain_pool.default_jobs ()
  in
  (* Worker-health accounting lands in the shared registry from each
     worker's own domain — the registry's per-domain shards make that
     contention-free. *)
  let stats =
    Option.map
      (fun m (ws : Sekitei_util.Domain_pool.worker_stats) ->
        let module Registry = Sekitei_telemetry.Registry in
        Registry.count m "pool.workers" 1;
        Registry.count m "pool.items" ws.items;
        Registry.observe_ms m "pool.worker_busy_ms" ws.busy_ms;
        Registry.observe_ms m "pool.worker_idle_ms"
          (Float.max 0. (ws.wall_ms -. ws.busy_ms)))
      metrics
  in
  (* Shared-nothing: each request gets its own throwaway session —
     problem, oracle, ctx — so workers touch no common mutable state
     except the telemetry handles the caller put in the requests, which
     are the caller's contract (per-request handles, or sinks wrapped in
     [Telemetry.locked]), and the optional shared registry, which is
     domain-sharded by design. *)
  Sekitei_util.Domain_pool.map ~jobs ?stats (fun req -> plan ?adjust ?metrics req) reqs

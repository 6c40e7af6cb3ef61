type result = { scale : float; metrics : Replay.metrics }

let feasible pb steps scale =
  match Replay.run ~source_scale:scale pb ~mode:Replay.From_init steps with
  | Ok m -> Some m
  | Error _ -> None

(* Bisection stops once the feasible and infeasible scales are this
   close. *)
let tolerance = 1e-3

let minimize pb (plan : Plan.t) =
  match feasible pb plan.Plan.steps 1. with
  | None -> None
  | Some full ->
      (* Invariant: [hi] feasible (metrics [best]), [lo] infeasible. *)
      let rec bisect lo hi best =
        if hi -. lo <= tolerance then { scale = hi; metrics = best }
        else
          let mid = (lo +. hi) /. 2. in
          match feasible pb plan.Plan.steps mid with
          | Some m -> bisect lo mid m
          | None -> bisect mid hi best
      in
      Some
        (match feasible pb plan.Plan.steps tolerance with
        | Some m -> { scale = tolerance; metrics = m }
        | None -> bisect tolerance 1. full)

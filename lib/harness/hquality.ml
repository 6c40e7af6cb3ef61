module Action = Sekitei_core.Action
module Plan = Sekitei_core.Plan
module Plrg = Sekitei_core.Plrg
module Problem = Sekitei_core.Problem
module Propset = Sekitei_core.Propset
module Session = Sekitei_core.Session
module Slrg = Sekitei_core.Slrg
module Stats = Sekitei_util.Running_stats
module Table = Sekitei_util.Ascii_table

type sample = { set_size : int; g : float; h_slrg : float; h_plrg : float }

type phase_quality = {
  samples : int;
  mean_err : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max_err : float;
  violations : int;
}

type report = {
  plan_cost : float;
  path_nodes : int;
  expanded : int;
  wasted_ratio : float;
  slrg : phase_quality;
  plrg : phase_quality;
}

let admissibility_eps = 1e-6

(* The accepted node's ancestors are the goal set regressed through the
   plan's actions, last action first, with g summed in that same order —
   the search's own accumulation order, so every g equals the search's
   bit for bit.  A fresh oracle answers h for each set, root first. *)
let samples
    ?(query_budget = Session.default_config.Session.slrg_query_budget)
    (pb : Problem.t) (plan : Plan.t) =
  let slrg = Slrg.create ~query_budget pb (Plrg.build pb) in
  let ctx = Slrg.ctx slrg in
  let sample (set : Propset.handle) g =
    let h_slrg = Slrg.query_h slrg set in
    {
      set_size = Array.length set.Propset.set;
      g;
      h_slrg;
      h_plrg = Slrg.h_max_h slrg set;
    }
  in
  let rec chain (set : Propset.handle) g acc = function
    | [] -> List.rev acc
    | (a : Action.t) :: earlier ->
        let set = Propset.regress_intern ctx set.Propset.set a in
        let g = g +. a.Action.cost_lb in
        let s = sample set g in
        chain set g (s :: acc) earlier
  in
  let root =
    Propset.intern ctx (Propset.canonical_array pb pb.Problem.goal_props)
  in
  let first = sample root 0. in
  chain root 0. [ first ] (List.rev plan.Plan.steps)

let phase_of errs =
  match errs with
  | [] ->
      {
        samples = 0;
        mean_err = 0.;
        p50 = 0.;
        p90 = 0.;
        p99 = 0.;
        max_err = 0.;
        violations = 0;
      }
  | _ ->
      let st = Stats.of_list errs in
      {
        samples = List.length errs;
        mean_err = Stats.mean st;
        p50 = Stats.percentile 0.5 errs;
        p90 = Stats.percentile 0.9 errs;
        p99 = Stats.percentile 0.99 errs;
        max_err = Stats.max st;
        violations =
          List.length (List.filter (fun e -> e < -.admissibility_eps) errs);
      }

let analyze ~plan_cost ~expanded samples =
  let err h s = plan_cost -. s.g -. h s in
  let slrg_errs = List.map (err (fun s -> s.h_slrg)) samples in
  let plrg_errs = List.map (err (fun s -> s.h_plrg)) samples in
  let path_nodes = List.length samples in
  {
    plan_cost;
    path_nodes;
    expanded;
    wasted_ratio =
      (if expanded <= 0 then 0.
       else
         float_of_int (Stdlib.max 0 (expanded - path_nodes))
         /. float_of_int expanded);
    slrg = phase_of slrg_errs;
    plrg = phase_of plrg_errs;
  }

let render r =
  let t =
    Table.create
      ~aligns:
        [
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right;
        ]
      [
        "heuristic"; "samples"; "mean err"; "p50"; "p90"; "p99"; "max err";
        "violations";
      ]
  in
  let row name (q : phase_quality) =
    Table.add_row t
      [
        name;
        string_of_int q.samples;
        Table.float_cell q.mean_err;
        Table.float_cell q.p50;
        Table.float_cell q.p90;
        Table.float_cell q.p99;
        Table.float_cell q.max_err;
        string_of_int q.violations;
      ]
  in
  row "slrg" r.slrg;
  row "plrg" r.plrg;
  Table.render t
  ^ Printf.sprintf
      "plan cost %s; %d path node(s), %d expansion(s), wasted-work ratio \
       %.2f\n"
      (Table.float_cell r.plan_cost)
      r.path_nodes r.expanded r.wasted_ratio

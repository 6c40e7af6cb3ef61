(** Regeneration of the paper's Table 2 (scalability evaluation).

    Runs the planner on {Tiny, Small, Large} x {A..E} and reports, per
    run: the plan's cost lower bound, number of actions in the plan,
    peak reserved LAN bandwidth, total leveled actions, PLRG / SLRG / RG
    sizes and planning times (total / search-only), exactly mirroring the
    paper's columns (plus the realized cost, which the paper does not
    print). *)

module Media = Sekitei_domains.Media
module Planner = Sekitei_core.Planner

type row = {
  network : string;
  level_scenario : Media.scenario;
  plan : Sekitei_core.Plan.t option;  (** [None]: no plan found *)
  stats : Planner.stats;
}

(** Run one cell. *)
val run_cell : ?config:Planner.config -> Scenarios.t -> Media.scenario -> row

(** Run the full table.  [networks] defaults to Tiny, Small and Large;
    [levels] to A..E. *)
val run :
  ?config:Planner.config ->
  ?networks:Scenarios.t list ->
  ?levels:Media.scenario list ->
  unit ->
  row list

(** Render in the paper's layout (ASCII). *)
val render : row list -> string

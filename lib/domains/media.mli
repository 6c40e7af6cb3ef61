(** The paper's evaluation application (Figures 1-4): media stream
    delivery.

    A [Server] provides a combined media stream [M] (images + text) of up
    to [supply] bandwidth units; a [Client] on another node requires at
    least [demand] units.  The stream can be transformed en route:

    - [Splitter] divides [M] into a text stream [T] (70%) and an image
      stream [I] (30%) — the ratio is fixed by the Merger condition
      [T.ibw*3 == I.ibw*7] and the paper's reserved-bandwidth figures;
    - [Zip]/[Unzip] halve/double the text stream ([Z] = compressed text);
    - [Merger] recombines [T] and [I] into [M].

    CPU costs (capacity 30 per node): Splitter [M/5], Zip [T/10],
    Unzip [Z/5], Merger [(T+I)/5] — so a Splitter+Zip pair saturates a
    node at ~111 units of [M], the paper's stated bound.

    Plan costs are proportional to processed/transferred bandwidth
    ([1 + bw/10]), matching the paper's Merger example. *)

module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling

(** [app ~server ~client ()] builds the application specification.
    Defaults: [supply] 200, [demand] 90. *)
val app :
  ?supply:float -> ?demand:float -> server:int -> client:int -> unit -> Model.app

(** Table 1 resource-level scenarios. *)
type scenario = A | B | C | D | E

val all_scenarios : scenario list
val scenario_name : scenario -> string

(** [leveling scenario app] builds the scenario's cutpoints for [M]
    ([Table 1]) and derives proportional levels for [T], [I], [Z] via
    {!Leveling.propagate}; scenario [E] additionally levels link bandwidth
    at 31 and 62. *)
val leveling : scenario -> Model.app -> Leveling.t

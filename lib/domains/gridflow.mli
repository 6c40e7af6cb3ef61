(** A grid-computing workflow domain (the paper's introduction motivates
    the CPP with Pegasus-style task graphs over logical files).

    A [Storage] service holds a logical dataset [F] (a file streamed at up
    to [supply] units); an [Analyze] task reduces it to a result stream
    [R] (one quarter of the input rate, plus 5 time units of processing
    latency); the [Consumer] requires at least [demand] units of [R]
    {e and} end-to-end latency within [deadline].  [Compress]/[Expand] can
    shrink the file stream to a third for narrow links at extra latency.

    This domain exercises multi-property interfaces: every stream carries
    both [ibw] (leveled, degradable) and [lat] (accumulated across links
    through the [link.lat] resource, checked against the deadline — the
    paper's QoS-pruning example). *)

module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Topology = Sekitei_network.Topology

(** [topology ~link_lats ~bws ()] is a line network whose [i]-th link has
    the given latency and bandwidth. *)
val topology : link_lats:float list -> bws:float list -> Topology.t

val app :
  ?supply:float ->
  ?demand:float ->
  ?deadline:float ->
  storage:int ->
  consumer:int ->
  unit ->
  Model.app

(** Levels on [F.ibw] at cutpoints 60, 80 and 120, propagated to [FZ]
    and [R]. *)
val leveling : Model.app -> Leveling.t

(** Leveled planning actions (paper section 3.1, "Leveled actions").

    Compilation turns the CPP into two action families — component
    placement and link crossing — and replicates each ground action per
    consistent assignment of resource levels to the interface variables it
    mentions.  Each leveled action carries:

    - its {e logical} preconditions and effects (interned propositions);
    - the level intervals assumed for its inputs and produced for its
      outputs (its {e optimistic resource map} row);
    - the levels of node/link resources it merely {e checks} (the paper's
      unimportant propositions);
    - an admissible cost lower bound (cost formula at interval infima). *)

module I = Sekitei_util.Interval

type kind =
  | Place of { comp : int; node : int }
  | Cross of { iface : int; link : int; src : int; dst : int }

type t = {
  act_id : int;
  kind : kind;
  pre : int array;  (** required propositions (interned) *)
  add : int array;  (** directly achieved propositions *)
  add_closure : int array;
      (** achieved propositions closed under degradability/upgradability,
          strictly increasing: {!Compile}, the only constructor of
          actions, emits them so, and {!Propset.regress_intern} merges
          them without sorting *)
  cost_lb : float;
  cost_extra : float;
      (** additive adjustment already folded into [cost_lb] (redeployment
          discounts/surcharges); replay adds it to the realized cost too *)
  in_levels : (int * I.t) array;  (** (iface index, assumed input interval) *)
  out_levels : (int * I.t) array;  (** (iface index, produced interval) *)
  checked_node : (string * I.t) array;
      (** node resource levels assumed (checked, never achieved) *)
  checked_link : (string * I.t) array;
  label : string;
}

val pp : Format.formatter -> t -> unit

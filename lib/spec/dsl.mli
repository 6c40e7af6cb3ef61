(** Textual specification language for CPP instances.

    Mirrors the paper's component specifications (Figures 2 and 6) in a
    plain-text format covering interfaces, components, the network, the
    deployment (pre-placements and goals), and resource levels:

    {v
    interface M {
      property ibw degradable;
      cross ibw := min(ibw, link.lbw);
      consume link.lbw -= min(ibw, link.lbw);
      cost 1 + ibw / 10;
      levels ibw: 30, 70, 90, 100;
    }

    component Merger {
      requires T, I;
      provides M;
      condition T.ibw * 3 == I.ibw * 7;
      effect M.ibw := T.ibw + I.ibw;
      consume node.cpu -= (T.ibw + I.ibw) / 5;
      cost 1 + (T.ibw + I.ibw) / 10;
    }

    network {
      node n0 cpu 30;
      node n1 cpu 30;
      link n0 -- n1 wan lbw 70;
    }

    deploy {
      place Server on n0;
      goal Client on n1;
    }

    levels link.lbw: 31, 62;
    v}

    Comments run from [#] to end of line.  Components may declare
    [anchored;] (not placeable — servers).  Properties may carry a default
    ([property lat = 0 neither;]).  Goals may also demand a property value
    ([goal M.ibw >= 90 on n1;]). *)

type document = {
  topo : Sekitei_network.Topology.t option;  (** absent without a network block *)
  app : Model.app;
  leveling : Leveling.t;
}

exception Dsl_error of string
(** Parse failure with a human-readable location. *)

val parse_document : string -> document

(** Render a document back to DSL text; [parse_document] of the output
    round-trips modulo formatting. *)
val print_document :
  ?topo:Sekitei_network.Topology.t -> Model.app -> Leveling.t -> string

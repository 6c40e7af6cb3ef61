(** Static well-formedness checks for CPP specifications.

    Run before compilation: catches dangling interface references,
    formulae over unknown variables, non-monotone effect formulae (the
    planner's endpoint evaluation assumes monotonicity, paper section 2.2),
    and goals naming unknown components or out-of-range nodes. *)

(** Full check of an application against a topology; empty list = valid.
    Diagnostics accumulate — one pass reports every problem, not just the
    first — carrying the [SKT0xx] codes from {!Sekitei_util.Diagnostic}
    (all at [Error] severity: an invalid spec never reaches the
    compiler).  This is the one validation entry point: [sekitei
    validate] and the planner's [Invalid_spec] reason print each
    diagnostic as [loc: message], [sekitei check] with its code. *)
val check_diagnostics :
  Sekitei_network.Topology.t -> Model.app -> Sekitei_util.Diagnostic.t list

(** Registration point for the independent plan certifier.

    {!Session} re-validates every emitted plan when [config.certify] is
    set, but the checker itself (sekitei.analysis' [Certify]) lives in a
    library layered {e above} lib/core — deliberately, so it shares no
    code with the search and replay machinery it audits.  The session
    therefore calls through this hook; [Sekitei_analysis.Certify.install]
    registers the real implementation.

    With no checker installed, {!run} accepts every plan (and
    [config.certify] is a no-op). *)

type checker = Problem.t -> Plan.t -> (unit, string) result
(** Returns [Error reason] when the plan fails independent validation;
    [reason] is a rendered diagnostic. *)

val install : checker -> unit
val run : Problem.t -> Plan.t -> (unit, string) result

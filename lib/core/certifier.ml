(* Indirection point for the independent plan certifier.  The session
   honours [config.certify] through this hook so that lib/core never
   depends on the analysis library implementing the check (which itself
   depends on lib/core). *)

type checker = Problem.t -> Plan.t -> (unit, string) result

let hook : checker option ref = ref None
let install f = hook := Some f
let run pb plan = match !hook with None -> Ok () | Some f -> f pb plan

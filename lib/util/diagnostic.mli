(** Structured diagnostics with stable [SKT###] codes.

    One diagnostic type is shared by every layer that judges a problem
    or a plan — the spec validator ({!Sekitei_spec.Validate}), the
    static preflight analyzer and the independent plan certifier
    (sekitei.analysis) — so tooling can consume all three through one
    text or JSON rendering.

    Code blocks (stable; renumbering is a breaking change):

    - [SKT0xx] specification validation
      {ul
       {- [SKT001] duplicate definition (interface / component / property)}
       {- [SKT002] illegal or unknown variable in a formula}
       {- [SKT003] formula not syntactically monotone in a stream property}
       {- [SKT004] dangling reference (interface / component / effect)}
       {- [SKT005] malformed deployment (pre-placement or goal)}
       {- [SKT006] no goals}}
    - [SKT1xx] static preflight over a compiled problem
      {ul
       {- [SKT101] interface with no producing component or source}
       {- [SKT102] component with no resource-feasible placement}
       {- [SKT103] interface level grid has gaps / overlaps / finite top}
       {- [SKT104] topology cut separates every producer from a goal node}
       {- [SKT105] goal proposition unreachable in the PLRG relaxation}
       {- [SKT106] goal component infeasible on its goal node}}
    - [SKT2xx] plan certification
      {ul
       {- [SKT201] precondition proposition not established}
       {- [SKT202] level assignment incompatible with the stream state}
       {- [SKT203] node resource overdrawn}
       {- [SKT204] link resource overdrawn}
       {- [SKT205] condition formula violated}
       {- [SKT206] computed output misses its declared level}
       {- [SKT207] recomputed cost bound differs from the plan's}
       {- [SKT208] action references a dead or mismatched topology element}
       {- [SKT209] goal proposition not satisfied at end of plan}}*)

type severity = Warning | Error

type t = {
  severity : severity;
  code : string;  (** stable machine code, ["SKT104"] *)
  loc : string;  (** subject, e.g. ["interface M"] or ["step 3"] *)
  message : string;  (** human explanation *)
  evidence : (string * string) list;  (** key/value supporting facts *)
}

val make :
  severity -> code:string -> loc:string -> ?evidence:(string * string) list ->
  string -> t

(** [error ~code ~loc fmt ...] / [warning ~code ~loc fmt ...] build a
    diagnostic with a printf-formatted message. *)
val error :
  code:string -> loc:string -> ?evidence:(string * string) list ->
  ('a, unit, string, t) format4 -> 'a

val warning :
  code:string -> loc:string -> ?evidence:(string * string) list ->
  ('a, unit, string, t) format4 -> 'a

val errors : t list -> t list
val warnings : t list -> t list

(** 0 when empty, 1 when the worst is a warning, 2 when any error — the
    exit-code convention of [sekitei check]. *)
val exit_code : t list -> int

(** Stable sort, errors first. *)
val by_severity : t list -> t list

(** ["error[SKT104] interface M: ... (k=v; ...)"] *)
val to_string : t -> string

val to_json : t -> Json.t
val list_to_json : t list -> Json.t

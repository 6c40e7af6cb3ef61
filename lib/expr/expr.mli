(** The specification formula language.

    Component and interface specifications (paper Figures 2 and 6) describe
    conditions, effects and costs with real-valued, generally
    {e non-reversible} but {e monotone} functions of resource and property
    variables ([Node.cpu >= (T.ibw + I.ibw)/5], [M.ibw' := min(M.ibw,
    Link.lbw)]).  This module provides the AST, exact point evaluation,
    sound interval evaluation (used by optimistic resource maps), and a
    syntactic monotonicity analysis (used to justify endpoint
    evaluation). *)

type var = string
(** Variable names are dot-qualified: ["M.ibw"], ["node.cpu"],
    ["link.lbw"]. *)

(** Formulas are generic over the type of their variables.  Specifications
    use names ({!t}); a consumer that evaluates one formula many times can
    {!map_vars} each name once to a pre-resolved reference of its own
    (compilation maps them to slots of its level combinations) and hand
    the evaluators an environment over that type instead. *)
type 'v gen =
  | Const of float
  | Var of 'v
  | Neg of 'v gen
  | Add of 'v gen * 'v gen
  | Sub of 'v gen * 'v gen
  | Mul of 'v gen * 'v gen
  | Div of 'v gen * 'v gen
  | Min of 'v gen * 'v gen
  | Max of 'v gen * 'v gen

type t = var gen

type cmp = Ge | Gt | Le | Lt | Eq

type 'v cond_gen =
  | True
  | Cmp of cmp * 'v gen * 'v gen
  | And of 'v cond_gen * 'v cond_gen
  | Or of 'v cond_gen * 'v cond_gen

type cond = var cond_gen

(** [map_vars f e] replaces every variable [v] of [e] by [f v]; the
    formula's shape is unchanged. *)
val map_vars : ('a -> 'b) -> 'a gen -> 'b gen

val map_cond_vars : ('a -> 'b) -> 'a cond_gen -> 'b cond_gen

(** {1 Construction helpers} *)

val var : var -> t
val const : float -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val ( >= ) : t -> t -> cond
val ( > ) : t -> t -> cond
val ( <= ) : t -> t -> cond
val ( < ) : t -> t -> cond
val ( = ) : t -> t -> cond
val ( && ) : cond -> cond -> cond
val ( || ) : cond -> cond -> cond

(** {1 Evaluation}

    The evaluators take formulas over any variable type and read each
    variable through [env]; whatever [env] raises propagates (by
    convention {!Unbound_variable} for a name it does not know). *)

exception Unbound_variable of var

(** Exact evaluation at a point; the environment maps variables to values.
    @raise Unbound_variable when a variable is missing.
    @raise Division_by_zero on division by exactly 0. *)
val eval : env:('v -> float) -> 'v gen -> float

(** Exact truth of a condition at a point. *)
val holds : env:('v -> float) -> 'v cond_gen -> bool

(** Sound interval enclosure of the expression's range when each variable
    ranges over its interval.  Exact for expressions where every variable
    occurs once (our specification formulae); an over-approximation in
    general — which is the safe direction for {e optimistic} resource maps.
    Products and quotients take the least and greatest of their four
    corners directly, allocating only the result interval.
    @raise Unbound_variable when a variable is missing.
    @raise Division_by_zero when a divisor interval contains 0. *)
val eval_interval :
  env:('v -> Sekitei_util.Interval.t) -> 'v gen -> Sekitei_util.Interval.t

(** Optimistic satisfiability: [true] when some assignment drawing each
    variable independently from its interval satisfies the condition.
    Sound in the optimistic direction: never [false] for a satisfiable
    condition; may be [true] for conditions that couple variables. *)
val sat : env:('v -> Sekitei_util.Interval.t) -> 'v cond_gen -> bool

(** {1 Analysis} *)

(** Free variables, each listed once, in first-occurrence order. *)
val vars : t -> var list

val cond_vars : cond -> var list

type monotonicity = Increasing | Decreasing | Constant | Unknown

(** Syntactic monotonicity of the expression in the given variable.
    [Increasing] means weakly increasing.  The analysis is conservative:
    [Unknown] when the variable occurs on both signs or inside a division
    denominator. *)
val monotonicity : t -> var -> monotonicity

(** Constant folding and algebraic identities ([x+0], [1*x], ...). *)
val simplify : t -> t

(** {1 Syntax} *)

(** Render with minimal parentheses; [parse] of the output round-trips. *)
val to_string : t -> string

val cond_to_string : cond -> string

exception Parse_error of string

(** Parse an arithmetic expression: numbers, dotted identifiers, [+ - * /],
    [min(a,b)], [max(a,b)], parentheses.  @raise Parse_error *)
val parse : string -> t

(** Parse a condition: comparisons ([>= > <= < ==]) over expressions,
    combined with [&&] and [||] (([&&] binds tighter).  @raise Parse_error *)
val parse_cond : string -> cond

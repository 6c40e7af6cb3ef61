module I = Sekitei_util.Interval

type var = string

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

let rec map_vars f = function
  | Const c -> Const c
  | Var v -> Var (f v)
  | Neg a -> Neg (map_vars f a)
  | Add (a, b) -> Add (map_vars f a, map_vars f b)
  | Sub (a, b) -> Sub (map_vars f a, map_vars f b)
  | Mul (a, b) -> Mul (map_vars f a, map_vars f b)
  | Div (a, b) -> Div (map_vars f a, map_vars f b)
  | Min (a, b) -> Min (map_vars f a, map_vars f b)
  | Max (a, b) -> Max (map_vars f a, map_vars f b)

let rec map_cond_vars f = function
  | True -> True
  | Cmp (op, a, b) -> Cmp (op, map_vars f a, map_vars f b)
  | And (a, b) -> And (map_cond_vars f a, map_cond_vars f b)
  | Or (a, b) -> Or (map_cond_vars f a, map_cond_vars f b)

let var v = Var v
let const c = Const c
let min_ a b = Min (a, b)
let max_ a b = Max (a, b)

exception Unbound_variable of var

(* ------------------------------------------------------------------ *)
(* Point evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let rec eval ~env e =
  match e with
  | Const c -> c
  | Var v -> env v
  | Neg a -> -.eval ~env a
  | Add (a, b) -> eval ~env a +. eval ~env b
  | Sub (a, b) -> eval ~env a -. eval ~env b
  | Mul (a, b) -> eval ~env a *. eval ~env b
  | Div (a, b) ->
      let d = eval ~env b in
      if d = 0. then raise Division_by_zero else eval ~env a /. d
  | Min (a, b) -> Float.min (eval ~env a) (eval ~env b)
  | Max (a, b) -> Float.max (eval ~env a) (eval ~env b)

let rec holds ~env c =
  match c with
  | True -> true
  | Cmp (op, a, b) -> (
      let x = eval ~env a and y = eval ~env b in
      match op with
      | Ge -> ( >= ) x y
      | Gt -> ( > ) x y
      | Le -> ( <= ) x y
      | Lt -> ( < ) x y
      | Eq ->
          (* Tolerant equality: specification ratios like T*3 == I*7 are
             meant up to floating rounding. *)
          Float.abs (x -. y) <= 1e-9 *. Stdlib.max 1. (Float.abs x))
  | And (a, b) -> holds ~env a && holds ~env b
  | Or (a, b) -> holds ~env a || holds ~env b

(* ------------------------------------------------------------------ *)
(* Interval evaluation                                                 *)
(* ------------------------------------------------------------------ *)

let neg_interval i =
  if not (Float.is_finite (I.hi i)) then
    invalid_arg "Expr: negation of an unbounded interval"
  else if I.is_point i then I.point (-.I.lo i)
  else I.of_extremes (-.I.hi i) (-.I.lo i)

(* Corner product with the interval-arithmetic convention 0 * inf = 0. *)
let corner_mul x y =
  let p = x *. y in
  if Float.is_nan p then 0. else p

(* The least and greatest corner, as [I.of_points] of the four corners
   would take them, without building the list. *)
let mul_interval a b =
  let c1 = corner_mul (I.lo a) (I.lo b)
  and c2 = corner_mul (I.lo a) (I.hi b)
  and c3 = corner_mul (I.hi a) (I.lo b)
  and c4 = corner_mul (I.hi a) (I.hi b) in
  I.of_extremes
    (Float.min (Float.min (Float.min c1 c2) c3) c4)
    (Float.max (Float.max (Float.max c1 c2) c3) c4)

let div_interval a b =
  if ( && ) (( <= ) (I.lo b) 0.) (( >= ) (I.hi b) 0.)
  then raise Division_by_zero
  else
    (* NaN (inf/inf) corners drop out; keep the enclosure sound by
       starting from an infinite upper corner when the numerator is
       unbounded and the divisor positive.  Float.min/max are
       order-independent on non-NaN values, so folding the surviving
       corners in any order gives the same extremes. *)
    let lo = ref Float.nan and hi = ref Float.nan in
    let corner x =
      if not (Float.is_nan x) then
        if Float.is_nan !lo then begin
          lo := x;
          hi := x
        end
        else begin
          lo := Float.min !lo x;
          hi := Float.max !hi x
        end
    in
    if
      Stdlib.( && ) (not (Float.is_finite (I.hi a))) (( > ) (I.lo b) 0.)
    then corner Float.infinity;
    corner (I.lo a /. I.lo b);
    corner (I.lo a /. I.hi b);
    corner (I.hi a /. I.lo b);
    corner (I.hi a /. I.hi b);
    if Float.is_nan !lo then invalid_arg "Interval.of_points: empty"
    else I.of_extremes !lo !hi

let rec eval_interval ~env e =
  match e with
  | Const c -> I.point c
  | Var v -> env v
  | Neg a -> neg_interval (eval_interval ~env a)
  | Add (a, b) -> I.add (eval_interval ~env a) (eval_interval ~env b)
  | Sub (a, b) -> I.sub (eval_interval ~env a) (eval_interval ~env b)
  | Mul (a, b) -> mul_interval (eval_interval ~env a) (eval_interval ~env b)
  | Div (a, b) -> div_interval (eval_interval ~env a) (eval_interval ~env b)
  | Min (a, b) -> I.min_ (eval_interval ~env a) (eval_interval ~env b)
  | Max (a, b) -> I.max_ (eval_interval ~env a) (eval_interval ~env b)

let rec sat ~env c =
  match c with
  | True -> true
  | Cmp (op, a, b) -> (
      let ia = eval_interval ~env a and ib = eval_interval ~env b in
      match op with
      | Eq -> I.sat_eq ia ib
      | Ge | Gt | Le | Lt -> (
          let d = I.sub ia ib in
          match op with
          | Ge -> I.sat_ge d 0.
          | Gt -> I.sat_gt d 0.
          | Le -> I.sat_le d 0.
          | Lt -> I.sat_lt d 0.
          | Eq -> assert false))
  | And (a, b) -> ( && ) (sat ~env a) (sat ~env b)
  | Or (a, b) -> ( || ) (sat ~env a) (sat ~env b)

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let vars e =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          acc := v :: !acc
        end
    | Neg a -> go a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b) | Max (a, b)
      ->
        go a;
        go b
  in
  go e;
  List.rev !acc

let cond_vars c =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let add v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      acc := v :: !acc
    end
  in
  let rec go = function
    | True -> ()
    | Cmp (_, a, b) ->
        List.iter add (vars a);
        List.iter add (vars b)
    | And (a, b) | Or (a, b) ->
        go a;
        go b
  in
  go c;
  List.rev !acc

let rec simplify e =
  match e with
  | Const _ | Var _ -> e
  | Neg a -> (
      match simplify a with
      | Const c -> Const (-.c)
      | Neg b -> b
      | a' -> Neg a')
  | Add (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (x +. y)
      | Const 0., e' | e', Const 0. -> e'
      | a', b' -> Add (a', b'))
  | Sub (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (x -. y)
      | e', Const 0. -> e'
      | a', b' -> Sub (a', b'))
  | Mul (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (x *. y)
      | Const 1., e' | e', Const 1. -> e'
      | Const 0., _ | _, Const 0. -> Const 0.
      | a', b' -> Mul (a', b'))
  | Div (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y when ( <> ) y 0. -> Const (x /. y)
      | e', Const 1. -> e'
      | a', b' -> Div (a', b'))
  | Min (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (Float.min x y)
      | a', b' -> Min (a', b'))
  | Max (a, b) -> (
      match (simplify a, simplify b) with
      | Const x, Const y -> Const (Float.max x y)
      | a', b' -> Max (a', b'))


type monotonicity = Increasing | Decreasing | Constant | Unknown

(* Static sign assuming every variable is non-negative (bandwidths, CPU
   shares and latencies all are).  Needed to propagate monotonicity
   through products. *)
type sign = Non_neg | Non_pos | Any_sign

let rec sign_of = function
  | Const c -> if ( >= ) c 0. then Non_neg else Non_pos
  | Var _ -> Non_neg
  | Neg a -> (
      match sign_of a with
      | Non_neg -> Non_pos
      | Non_pos -> Non_neg
      | Any_sign -> Any_sign)
  | Add (a, b) | Min (a, b) | Max (a, b) -> (
      match (sign_of a, sign_of b) with
      | Non_neg, Non_neg -> Non_neg
      | Non_pos, Non_pos -> Non_pos
      | _ -> Any_sign)
  | Sub (a, b) -> (
      match (sign_of a, sign_of b) with
      | Non_neg, Non_pos -> Non_neg
      | Non_pos, Non_neg -> Non_pos
      | _ -> Any_sign)
  | Mul (a, b) | Div (a, b) -> (
      match (sign_of a, sign_of b) with
      | Non_neg, Non_neg | Non_pos, Non_pos -> Non_neg
      | Non_neg, Non_pos | Non_pos, Non_neg -> Non_pos
      | _ -> Any_sign)

let flip = function
  | Increasing -> Decreasing
  | Decreasing -> Increasing
  | m -> m

let join a b =
  match (a, b) with
  | Constant, m | m, Constant -> m
  | Increasing, Increasing -> Increasing
  | Decreasing, Decreasing -> Decreasing
  | _ -> Unknown

let rec monotonicity e v =
  let mentions a = List.mem v (vars a) in
  match e with
  | Const _ -> Constant
  | Var v' -> if String.equal v v' then Increasing else Constant
  | Neg a -> flip (monotonicity a v)
  | Add (a, b) -> join (monotonicity a v) (monotonicity b v)
  | Sub (a, b) -> join (monotonicity a v) (flip (monotonicity b v))
  | Min (a, b) | Max (a, b) -> join (monotonicity a v) (monotonicity b v)
  | Mul (a, b) -> (
      match (mentions a, mentions b) with
      | false, false -> Constant
      | true, true -> Unknown
      | true, false -> scale_mono (monotonicity a v) (sign_of_simplified b)
      | false, true -> scale_mono (monotonicity b v) (sign_of_simplified a))
  | Div (a, b) ->
      if mentions b then Unknown
      else scale_mono (monotonicity a v) (sign_of_simplified b)

and scale_mono m s =
  match s with Non_neg -> m | Non_pos -> flip m | Any_sign -> Unknown

(* Constant-fold before sign analysis so that e.g. (0 - 2) is seen as a
   negative constant. *)
and sign_of_simplified e = sign_of (simplify e)

let easier_when_lower c v =
  (* A condition is easier (or unchanged) when v decreases iff its
     satisfaction is downward-monotone in v. *)
  let rec go = function
    | True -> Some true
    | Cmp (op, a, b) -> (
        let d = monotonicity (Sub (a, b)) v in
        match (op, d) with
        | _, Constant -> Some true
        | (Ge | Gt), Decreasing -> Some true
        | (Ge | Gt), Increasing -> Some false
        | (Le | Lt), Increasing -> Some true
        | (Le | Lt), Decreasing -> Some false
        | Eq, _ -> None
        | _, Unknown -> None)
    | And (a, b) | Or (a, b) -> (
        match (go a, go b) with
        | Some true, Some true -> Some true
        | Some false, Some _ | Some _, Some false -> Some false
        | _ -> None)
  in
  go c

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let prec = function
  | Const _ | Var _ | Min _ | Max _ -> 3
  | Neg _ -> 2
  | Mul _ | Div _ -> 1
  | Add _ | Sub _ -> 0

let float_lit f =
  if Float.is_integer f && ( < ) (Float.abs f) 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* Shortest representation that round-trips exactly, so printing and
       reparsing preserves evaluation bit-for-bit. *)
    let s = Printf.sprintf "%.12g" f in
    if ( = ) (float_of_string s) f then s else Printf.sprintf "%.17g" f

let rec to_string e =
  let at p child =
    let s = to_string child in
    if ( < ) (prec child) p then "(" ^ s ^ ")" else s
  in
  match e with
  | Const c -> float_lit c
  | Var v -> v
  | Neg a -> "-" ^ at 2 a
  | Add (a, b) -> at 0 a ^ " + " ^ at 1 b
  | Sub (a, b) -> at 0 a ^ " - " ^ at 1 b
  | Mul (a, b) -> at 1 a ^ " * " ^ at 2 b
  | Div (a, b) -> at 1 a ^ " / " ^ at 2 b
  | Min (a, b) -> "min(" ^ to_string a ^ ", " ^ to_string b ^ ")"
  | Max (a, b) -> "max(" ^ to_string a ^ ", " ^ to_string b ^ ")"

let cmp_to_string = function
  | Ge -> ">="
  | Gt -> ">"
  | Le -> "<="
  | Lt -> "<"
  | Eq -> "=="

let rec cond_to_string = function
  | True -> "true"
  | Cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (to_string a) (cmp_to_string op) (to_string b)
  | And (a, b) -> paren_cond a ^ " && " ^ paren_cond b
  | Or (a, b) -> paren_cond a ^ " || " ^ paren_cond b

and paren_cond c =
  match c with
  | And _ | Or _ -> "(" ^ cond_to_string c ^ ")"
  | _ -> cond_to_string c

let pp fmt e = Format.pp_print_string fmt (to_string e)
let pp_cond fmt c = Format.pp_print_string fmt (cond_to_string c)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type token =
  | TNum of float
  | TIdent of string
  | TLparen
  | TRparen
  | TComma
  | TPlus
  | TMinus
  | TStar
  | TSlash
  | TGe
  | TGt
  | TLe
  | TLt
  | TEq
  | TAnd
  | TOr

let is_ident_char c =
  Stdlib.( || )
    (Stdlib.( || )
       (( && ) (( >= ) c 'a') (( <= ) c 'z'))
       (( && ) (( >= ) c 'A') (( <= ) c 'Z')))
    (Stdlib.( || )
       (( && ) (( >= ) c '0') (( <= ) c '9'))
       (List.mem c [ '_'; '.'; '\'' ]))

let is_digit c = ( && ) (( >= ) c '0') (( <= ) c '9')

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !i)) in
  let digit_at j = ( && ) (( < ) j n) (is_digit s.[j]) in
  while ( < ) !i n do
    let c = s.[!i] in
    if ( || ) (Char.equal c ' ') (List.mem c [ '\t'; '\n'; '\r' ]) then
      incr i
    else if is_digit c then begin
      let start = !i in
      while
        Stdlib.( && )
          (( < ) !i n)
          (( || ) (is_digit s.[!i]) (Char.equal s.[!i] '.'))
      do
        incr i
      done;
      (* An exponent [eE][+-]?digits, taken only when a digit follows:
         {!float_lit} prints very small and very large constants in
         this form. *)
      (if ( && ) (( < ) !i n) (List.mem s.[!i] [ 'e'; 'E' ]) then
         let j =
           if
             ( && )
               (digit_at (( + ) !i 2))
               (List.mem s.[( + ) !i 1] [ '+'; '-' ])
           then ( + ) !i 2
           else ( + ) !i 1
         in
         if digit_at j then begin
           i := j;
           while digit_at !i do
             incr i
           done
         end);
      let lit = String.sub s start (( - ) !i start) in
      match float_of_string_opt lit with
      | Some f -> push (TNum f)
      | None -> fail ("bad number " ^ lit)
    end
    else if
      Stdlib.( || )
        (( && ) (( >= ) c 'a') (( <= ) c 'z'))
        (Stdlib.( || )
           (( && ) (( >= ) c 'A') (( <= ) c 'Z'))
           (Char.equal c '_'))
    then begin
      let start = !i in
      while ( && ) (( < ) !i n) (is_ident_char s.[!i]) do
        incr i
      done;
      push (TIdent (String.sub s start (( - ) !i start)))
    end
    else begin
      let two =
        if ( < ) (( + ) !i 1) n then String.sub s !i 2 else ""
      in
      match two with
      | ">=" ->
          push TGe;
          i := ( + ) !i 2
      | "<=" ->
          push TLe;
          i := ( + ) !i 2
      | "==" ->
          push TEq;
          i := ( + ) !i 2
      | "&&" ->
          push TAnd;
          i := ( + ) !i 2
      | "||" ->
          push TOr;
          i := ( + ) !i 2
      | _ -> (
          (match c with
          | '(' -> push TLparen
          | ')' -> push TRparen
          | ',' -> push TComma
          | '+' -> push TPlus
          | '-' -> push TMinus
          | '*' -> push TStar
          | '/' -> push TSlash
          | '>' -> push TGt
          | '<' -> push TLt
          | '=' -> push TEq
          | _ -> fail (Printf.sprintf "unexpected character %c" c));
          incr i)
    end
  done;
  Array.of_list (List.rev !toks)

type parser_state = { toks : token array; mutable pos : int }

let peek st =
  if ( < ) st.pos (Array.length st.toks) then Some st.toks.(st.pos)
  else None

let advance st = st.pos <- ( + ) st.pos 1

let expect st tok what =
  match peek st with
  | Some t when ( = ) t tok -> advance st
  | _ -> raise (Parse_error ("expected " ^ what))

let rec parse_expr st =
  let rec loop acc =
    match peek st with
    | Some TPlus ->
        advance st;
        loop (Add (acc, parse_term st))
    | Some TMinus ->
        advance st;
        loop (Sub (acc, parse_term st))
    | _ -> acc
  in
  loop (parse_term st)

and parse_term st =
  let rec loop acc =
    match peek st with
    | Some TStar ->
        advance st;
        loop (Mul (acc, parse_factor st))
    | Some TSlash ->
        advance st;
        loop (Div (acc, parse_factor st))
    | _ -> acc
  in
  loop (parse_factor st)

and parse_factor st =
  match peek st with
  | Some TMinus ->
      advance st;
      Neg (parse_factor st)
  | Some (TNum f) ->
      advance st;
      Const f
  | Some (TIdent ("min" | "max" as fn)) when peek_is_lparen st 1 ->
      advance st;
      expect st TLparen "(";
      let a = parse_expr st in
      expect st TComma ",";
      let b = parse_expr st in
      expect st TRparen ")";
      if String.equal fn "min" then Min (a, b) else Max (a, b)
  | Some (TIdent v) ->
      advance st;
      Var v
  | Some TLparen ->
      advance st;
      let e = parse_expr st in
      expect st TRparen ")";
      e
  | _ -> raise (Parse_error "expected expression")

and peek_is_lparen st offset =
  let i = ( + ) st.pos offset in
  Stdlib.( && )
    (( < ) i (Array.length st.toks))
    (( = ) st.toks.(i) TLparen)

let parse_cmp st =
  let a = parse_expr st in
  match peek st with
  | Some TGe ->
      advance st;
      Cmp (Ge, a, parse_expr st)
  | Some TGt ->
      advance st;
      Cmp (Gt, a, parse_expr st)
  | Some TLe ->
      advance st;
      Cmp (Le, a, parse_expr st)
  | Some TLt ->
      advance st;
      Cmp (Lt, a, parse_expr st)
  | Some TEq ->
      advance st;
      Cmp (Eq, a, parse_expr st)
  | _ -> raise (Parse_error "expected comparison operator")

let rec parse_cond_or st =
  let rec loop acc =
    match peek st with
    | Some TOr ->
        advance st;
        loop (Or (acc, parse_cond_and st))
    | _ -> acc
  in
  loop (parse_cond_and st)

and parse_cond_and st =
  let rec loop acc =
    match peek st with
    | Some TAnd ->
        advance st;
        loop (And (acc, parse_cond_atom st))
    | _ -> acc
  in
  loop (parse_cond_atom st)

and parse_cond_atom st =
  match peek st with
  | Some (TIdent "true") ->
      advance st;
      True
  | Some TLparen -> (
      (* Could be a parenthesized condition or a parenthesized arithmetic
         sub-expression of a comparison; try the condition reading first
         and backtrack. *)
      let saved = st.pos in
      advance st;
      match
        try
          let c = parse_cond_or st in
          expect st TRparen ")";
          Some c
        with Parse_error _ -> None
      with
      | Some c -> c
      | None ->
          st.pos <- saved;
          parse_cmp st)
  | _ -> parse_cmp st

let run_parser f s =
  let st = { toks = tokenize s; pos = 0 } in
  let result = f st in
  if ( < ) st.pos (Array.length st.toks) then
    raise (Parse_error (Printf.sprintf "trailing input in %S" s));
  result

let parse s = run_parser parse_expr s
let parse_cond s = run_parser parse_cond_or s

(* Infix constructors, deliberately last: they shadow the standard
   operators for the rest of the compilation unit only. *)
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let ( / ) a b = Div (a, b)
let ( >= ) a b = Cmp (Ge, a, b)
let ( > ) a b = Cmp (Gt, a, b)
let ( <= ) a b = Cmp (Le, a, b)
let ( < ) a b = Cmp (Lt, a, b)
let ( = ) a b = Cmp (Eq, a, b)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)

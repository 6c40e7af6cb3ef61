type t = { lo : float; hi : float }

exception Empty_interval

(* Invariant: lo <= hi, lo finite, neither bound NaN.  lo = hi encodes the
   degenerate point interval {lo}; lo < hi encodes the half-open [lo, hi). *)

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then raise Empty_interval
  else if hi <= lo then raise Empty_interval
  else if not (Float.is_finite lo) then raise Empty_interval
  else { lo; hi }

let make_opt lo hi = try Some (make lo hi) with Empty_interval -> None
let full = { lo = 0.; hi = Float.infinity }

let point x =
  if not (Float.is_finite x) then raise Empty_interval else { lo = x; hi = x }

let lo i = i.lo
let hi i = i.hi
let is_point i = i.lo = i.hi
let mem x i = if is_point i then x = i.lo else i.lo <= x && x < i.hi
let operating_point ~cap i = if Float.is_finite i.hi then i.hi else cap

let inter a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo < hi then Some { lo; hi }
  else if lo = hi && (is_point a || is_point b) && mem lo a && mem lo b then
    Some { lo; hi }
  else None

let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
let equal a b = a.lo = b.lo && a.hi = b.hi
let subset a b = b.lo <= a.lo && a.hi <= b.hi
let overlaps a b = inter a b <> None

(* Arithmetic.  Point-ness is preserved only when both operands are points;
   mixing a point with a proper interval widens to the enclosing interval. *)

let add a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }

let sub a b =
  (* Sound enclosure of {x - y}; may contain negative values. *)
  let lo = a.lo -. b.hi and hi = a.hi -. b.lo in
  if Float.is_nan lo || Float.is_nan hi then raise Empty_interval
  else if lo > hi then
    (* Unreachable while both operands satisfy the lo <= hi invariant
       (a.lo - b.hi <= a.hi - b.lo then holds termwise); silently swapping
       the bounds here would mask a corrupted operand. *)
    invalid_arg "Interval.sub: operand bounds inverted"
  else { lo; hi }

let scale k i =
  if k < 0. then invalid_arg "Interval.scale: negative factor"
  else if k = 0. then point 0.
  else
    {
      lo = k *. i.lo;
      hi = (if Float.is_finite i.hi then k *. i.hi else Float.infinity);
    }

let shift c i = { lo = i.lo +. c; hi = i.hi +. c }
let min_scalar c i = { lo = Float.min c i.lo; hi = Float.min c i.hi }
let max_scalar c i = { lo = Float.max c i.lo; hi = Float.max c i.hi }
let min_ a b = { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }
let max_ a b = { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }

(* Satisfiability against a scalar under half-open semantics: the interval
   contains values arbitrarily close to (but, for proper intervals, not
   equal to) hi. *)

let sat_ge i c = if is_point i then i.lo >= c else i.hi > c
let sat_gt i c = i.hi > c
let sat_le i c = i.lo <= c
let sat_lt i c = i.lo < c
let sat_eq a b = overlaps a b

let width i = i.hi -. i.lo

let to_string i =
  if is_point i then Printf.sprintf "{%g}" i.lo
  else if Float.is_finite i.hi then Printf.sprintf "[%g,%g)" i.lo i.hi
  else Printf.sprintf "[%g,inf)" i.lo

let pp fmt i = Format.pp_print_string fmt (to_string i)

let of_extremes lo hi =
  if Float.is_nan lo || Float.is_nan hi || not (Float.is_finite lo) then
    invalid_arg "Interval.of_points: non-finite lower bound"
  else if hi < lo then invalid_arg "Interval.of_extremes: hi < lo"
  else { lo; hi }

let of_points = function
  | [] -> invalid_arg "Interval.of_points: empty"
  | x :: rest ->
      of_extremes
        (List.fold_left Float.min x rest)
        (List.fold_left Float.max x rest)

let of_cutpoints cuts =
  let rec check prev = function
    | [] -> ()
    | c :: rest ->
        if c <= prev || not (Float.is_finite c) then
          invalid_arg "Interval.of_cutpoints: not strictly increasing"
        else check c rest
  in
  check 0. cuts;
  let rec build lo = function
    | [] -> [ { lo; hi = Float.infinity } ]
    | c :: rest -> { lo; hi = c } :: build c rest
  in
  build 0. cuts

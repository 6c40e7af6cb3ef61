type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable minv : float;
  mutable maxv : float;
  mutable total : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; minv = Float.infinity; maxv = Float.neg_infinity; total = 0. }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.minv then t.minv <- x;
  if x > t.maxv then t.maxv <- x;
  t.total <- t.total +. x

let count t = t.n
let mean t = t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min t = t.minv
let max t = t.maxv
let total t = t.total

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let percentile p xs =
  if xs = [] then invalid_arg "Running_stats.percentile: empty";
  if p < 0. || p > 1. then
    invalid_arg "Running_stats.percentile: p not in [0,1]";
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  let idx = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor idx)
  and hi = int_of_float (Float.ceil idx) in
  let frac = idx -. Float.floor idx in
  (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)

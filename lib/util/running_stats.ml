type t = { mutable n : int; mutable mean : float; mutable maxv : float }

let create () = { n = 0; mean = 0.; maxv = Float.neg_infinity }

let add t x =
  t.n <- t.n + 1;
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n);
  if x > t.maxv then t.maxv <- x

let mean t = t.mean
let max t = t.maxv

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

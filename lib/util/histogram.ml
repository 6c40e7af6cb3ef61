(* Log-bucketed histogram with a dense count array over the occupied
   bucket-index window.

   A value v >= min_trackable maps to bucket index ceil(ln v / ln gamma)
   with gamma = (1+e)/(1-e): bucket i covers (gamma^(i-1), gamma^i], and
   reporting the midpoint-in-ratio 2*gamma^i/(gamma+1) keeps the
   relative error of any reported value at most e.  Counts live in one
   int array indexed by (bucket - base); the window grows geometrically
   as new extremes are recorded, and is bounded by the log of the
   tracked range — ln(1e9 / 1e-9) / ln(1.0202) ~ 2100 buckets at the
   default 1% error even for a histogram fed everything from a
   nanosecond to a month — so memory is constant in the number of
   recorded values. *)

type t = {
  rel_error : float;
  gamma : float;
  inv_log_gamma : float;  (* 1 / ln gamma, hoisted out of the add path *)
  mutable counts : int array;
  mutable base : int;  (* bucket index of counts.(0); meaningless when empty *)
  mutable occupied : bool;  (* some positive-range bucket has been hit *)
  mutable zero : int;
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let min_trackable = 1e-9

let create ?(rel_error = 0.01) () =
  if not (rel_error > 0. && rel_error < 1.) then
    invalid_arg "Histogram.create: rel_error not in (0,1)";
  let gamma = (1. +. rel_error) /. (1. -. rel_error) in
  {
    rel_error;
    gamma;
    inv_log_gamma = 1. /. log gamma;
    counts = [||];
    base = 0;
    occupied = false;
    zero = 0;
    n = 0;
    sum = 0.;
    vmin = Float.nan;
    vmax = Float.nan;
  }

let count t = t.n
let zero_count t = t.zero
let sum t = t.sum
let min_value t = t.vmin
let max_value t = t.vmax
let mean t = if t.n = 0 then Float.nan else t.sum /. float_of_int t.n

let bucket_index t v = int_of_float (Float.ceil (log v *. t.inv_log_gamma))

(* Value estimate for bucket index i: the point whose relative distance
   to both bucket ends is the same, 2*gamma^i/(gamma+1). *)
let bucket_estimate t i =
  2. *. (t.gamma ** float_of_int i) /. (t.gamma +. 1.)

let bucket_lo t i = t.gamma ** float_of_int (i - 1)
let bucket_hi t i = t.gamma ** float_of_int i

(* Ensure bucket index [i] falls inside the window, growing front/back
   with geometric slack so repeated extremes amortize. *)
let ensure t i =
  if not t.occupied then begin
    t.counts <- (if t.counts = [||] then Array.make 8 0 else t.counts);
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.base <- i - (Array.length t.counts / 2);
    t.occupied <- true
  end;
  let len = Array.length t.counts in
  if i < t.base then begin
    let extra = Stdlib.max len (t.base - i) in
    let grown = Array.make (len + extra) 0 in
    Array.blit t.counts 0 grown extra len;
    t.counts <- grown;
    t.base <- t.base - extra
  end
  else if i >= t.base + len then begin
    let extra = Stdlib.max len (i - (t.base + len) + 1) in
    let grown = Array.make (len + extra) 0 in
    Array.blit t.counts 0 grown 0 len;
    t.counts <- grown
  end

let add t v =
  t.n <- t.n + 1;
  if v >= min_trackable then begin
    t.sum <- t.sum +. v;
    if Float.is_nan t.vmin || v < t.vmin then t.vmin <- v;
    if Float.is_nan t.vmax || v > t.vmax then t.vmax <- v;
    (* Infinities would overflow ceil-of-log; clamp to the float range's
       last representable bucket instead of raising mid-flight. *)
    let i =
      if Float.is_finite v then bucket_index t v
      else bucket_index t Float.max_float
    in
    ensure t i;
    t.counts.(i - t.base) <- t.counts.(i - t.base) + 1
  end
  else begin
    (* Zero bucket: zero, sub-min, negative, NaN. *)
    t.zero <- t.zero + 1;
    if Float.is_finite v then begin
      t.sum <- t.sum +. v;
      if Float.is_nan t.vmin || v < t.vmin then t.vmin <- v;
      if Float.is_nan t.vmax || v > t.vmax then t.vmax <- v
    end
  end

let percentile t p =
  if t.n = 0 then invalid_arg "Histogram.percentile: empty";
  if p < 0. || p > 1. then invalid_arg "Histogram.percentile: p not in [0,1]";
  (* Target the order statistic at rank round (p * (n-1)), 0-based — the
     same convention Running_stats.percentile resolves to when the
     interpolation lands on a sample, which is what the relative-error
     guarantee is stated against. *)
  let rank =
    int_of_float (Float.round (p *. float_of_int (t.n - 1)))
  in
  let rank = Stdlib.min (t.n - 1) (Stdlib.max 0 rank) in
  let clamp v =
    let v = if Float.is_nan t.vmin || v >= t.vmin then v else t.vmin in
    if Float.is_nan t.vmax || v <= t.vmax then v else t.vmax
  in
  if rank < t.zero then clamp 0.
  else begin
    let remaining = ref (rank - t.zero) in
    let answer = ref Float.nan in
    (try
       Array.iteri
         (fun off c ->
           if c > 0 then begin
             if !remaining < c then begin
               answer := bucket_estimate t (t.base + off);
               raise Exit
             end;
             remaining := !remaining - c
           end)
         t.counts
     with Exit -> ());
    if Float.is_nan !answer then
      (* Counts can only under-cover the rank when values were clamped
         or the histogram holds just zero-bucket entries; fall back to
         the exact max. *)
      t.vmax
    else clamp !answer
  end

let copy t = { t with counts = Array.copy t.counts }

let merge a b =
  if a.rel_error <> b.rel_error then
    invalid_arg "Histogram.merge: mismatched rel_error";
  let fmin x y =
    if Float.is_nan x then y else if Float.is_nan y then x else Float.min x y
  in
  let fmax x y =
    if Float.is_nan x then y else if Float.is_nan y then x else Float.max x y
  in
  let m = copy a in
  m.zero <- a.zero + b.zero;
  m.n <- a.n + b.n;
  m.sum <- a.sum +. b.sum;
  m.vmin <- fmin a.vmin b.vmin;
  m.vmax <- fmax a.vmax b.vmax;
  if b.occupied then
    Array.iteri
      (fun off c ->
        if c > 0 then begin
          let i = b.base + off in
          ensure m i;
          m.counts.(i - m.base) <- m.counts.(i - m.base) + c
        end)
      b.counts;
  m

let buckets t =
  let acc = ref [] in
  if t.occupied then
    for off = Array.length t.counts - 1 downto 0 do
      let c = t.counts.(off) in
      if c > 0 then
        let i = t.base + off in
        acc := (bucket_lo t i, bucket_hi t i, c) :: !acc
    done;
  if t.zero > 0 then (0., 0., t.zero) :: !acc else !acc

let cumulative t =
  let running = ref 0 in
  List.map
    (fun (_, hi, c) ->
      running := !running + c;
      (hi, !running))
    (buckets t)

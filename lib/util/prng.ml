type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = seed }

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next t in
  { state = mix seed }

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for the
     small bounds used in topology generation.  Shifting by 2 leaves 62
     bits, which always fit OCaml's 63-bit native int non-negatively. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod n

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t p = float t 1.0 < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t k xs =
  let n = List.length xs in
  if k > n then invalid_arg "Prng.sample: k > length";
  let arr = Array.of_list xs in
  shuffle t arr;
  Array.to_list (Array.sub arr 0 k)

(* Unit tests for Sekitei_util.Heap: ordering, FIFO tie-breaking,
   secondary priority, growth. *)

module Heap = Sekitei_util.Heap

(* Pop every entry, minimum first, as (value, priority) pairs. *)
let drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let p = Heap.top_prio h in
      go ((Heap.pop_value h, p) :: acc)
  in
  go []

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_empty () =
  let h : string Heap.t = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check bool) "top_prio rejected" true
    (raises_invalid (fun () -> Heap.top_prio h));
  Alcotest.(check bool) "top_seq rejected" true
    (raises_invalid (fun () -> Heap.top_seq h))

let test_single () =
  let h = Heap.create () in
  Heap.add h ~prio:3. "x";
  Alcotest.(check (float 0.)) "top_prio" 3. (Heap.top_prio h);
  Alcotest.(check int) "top_seq" 0 (Heap.top_seq h);
  Alcotest.(check int) "length after top reads" 1 (Heap.length h);
  Alcotest.(check string) "pop_value" "x" (Heap.pop_value h);
  Alcotest.(check bool) "empty after pop" true (Heap.is_empty h)

let test_ordering () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.add h ~prio:p v)
    [ (5., "e"); (1., "a"); (3., "c"); (2., "b"); (4., "d") ];
  let drained = List.map fst (drain h) in
  Alcotest.(check (list string)) "ascending" [ "a"; "b"; "c"; "d"; "e" ] drained

let test_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.add h ~prio:1. v) [ "first"; "second"; "third" ];
  let drained = List.map fst (drain h) in
  Alcotest.(check (list string)) "insertion order among ties"
    [ "first"; "second"; "third" ] drained

let test_prio2 () =
  let h = Heap.create () in
  Heap.add h ~prio:1. ~prio2:0. "shallow";
  Heap.add h ~prio:1. ~prio2:(-5.) "deep";
  Alcotest.(check string) "deeper (lower prio2) first" "deep" (Heap.pop_value h)

let test_growth () =
  let h = Heap.create () in
  for i = 999 downto 0 do
    Heap.add h ~prio:(float_of_int i) i
  done;
  Alcotest.(check int) "length" 1000 (Heap.length h);
  let drained = List.map fst (drain h) in
  Alcotest.(check (list int)) "sorted" (List.init 1000 Fun.id) drained

let test_insertions_counter () =
  let h = Heap.create () in
  Heap.add h ~prio:1. 1;
  Heap.add h ~prio:2. 2;
  ignore (Heap.pop_value h);
  Alcotest.(check int) "insertions counts every add" 2 (Heap.insertions h)

let test_reset () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.add h ~prio:1. i
  done;
  Heap.reset h;
  Alcotest.(check bool) "empty after reset" true (Heap.is_empty h);
  Alcotest.(check int) "insertions restart" 0 (Heap.insertions h);
  Heap.add h ~prio:2. 7;
  Heap.add h ~prio:1. 8;
  Alcotest.(check int) "sequence numbers restart" 1 (Heap.top_seq h);
  Alcotest.(check (list int)) "reused heap still orders" [ 8; 7 ]
    (List.map fst (drain h))

let test_nan_rejected () =
  let h = Heap.create () in
  Alcotest.check_raises "nan prio" (Invalid_argument "Heap.add: NaN priority")
    (fun () -> Heap.add h ~prio:Float.nan 1)

let test_nan_prio2_rejected () =
  (* A NaN tiebreaker would poison [before]'s comparisons just like a NaN
     primary priority, silently corrupting the heap order. *)
  let h = Heap.create () in
  Alcotest.check_raises "nan prio2"
    (Invalid_argument "Heap.add: NaN secondary priority") (fun () ->
      Heap.add h ~prio:1. ~prio2:Float.nan 1)

let test_pop_value_empty () =
  let h = Heap.create () in
  Heap.add h ~prio:1. 1;
  ignore (Heap.pop_value h);
  Alcotest.check_raises "pop_value empty"
    (Invalid_argument "Heap.pop_value: empty heap") (fun () ->
      ignore (Heap.pop_value h))

let test_interleaved () =
  (* Mixed adds and pops keep the min invariant. *)
  let h = Heap.create () in
  Heap.add h ~prio:5. 5;
  Heap.add h ~prio:1. 1;
  Alcotest.(check int) "pop 1" 1 (Heap.pop_value h);
  Heap.add h ~prio:0. 0;
  Heap.add h ~prio:9. 9;
  Alcotest.(check (list (pair int (float 0.)))) "then 0, 5, 9"
    [ (0, 0.); (5, 5.); (9, 9.) ]
    (drain h)

let suite =
  [
    ("empty", `Quick, test_empty);
    ("single", `Quick, test_single);
    ("ordering", `Quick, test_ordering);
    ("fifo ties", `Quick, test_fifo_ties);
    ("secondary priority", `Quick, test_prio2);
    ("growth", `Quick, test_growth);
    ("insertions counter", `Quick, test_insertions_counter);
    ("reset", `Quick, test_reset);
    ("nan rejected", `Quick, test_nan_rejected);
    ("nan prio2 rejected", `Quick, test_nan_prio2_rejected);
    ("pop_value on empty", `Quick, test_pop_value_empty);
    ("interleaved", `Quick, test_interleaved);
  ]

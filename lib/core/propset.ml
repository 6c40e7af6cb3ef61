(* Canonical proposition sets shared by the SLRG and RG phases. *)

let sort_ints (a : int array) = Array.sort Int.compare a

(* Sort + dedup + drop initially-true propositions, from an array that the
   caller allows us to scratch. *)
let canonical_scratch (pb : Problem.t) (arr : int array) =
  sort_ints arr;
  let n = Array.length arr in
  let keep = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let p = arr.(i) in
    if (not pb.Problem.init.(p)) && (!k = 0 || keep.(!k - 1) <> p) then begin
      keep.(!k) <- p;
      incr k
    end
  done;
  if !k = n then keep else Array.sub keep 0 !k

let canonical pb props = canonical_scratch pb (Array.of_list props)
let canonical_array pb props = canonical_scratch pb (Array.copy props)

let equal (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* FNV-1a over the elements; canonical sets hash identically iff equal
   modulo collisions. *)
let hash (a : int array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor a.(i)) * 0x01000193
  done;
  !h land max_int

let mem (set : int array) (p : int) =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let v = set.(mid) in
      if v = p then true else if v < p then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length set)

module Tbl = Hashtbl.Make (struct
  type t = int array

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Hash-consed handles                                                 *)
(* ------------------------------------------------------------------ *)

type handle = { id : int; set : int array }

let no_handle = { id = -1; set = [||] }

module Interner = struct
  (* Hash-consing of canonical sets: every distinct set gets one physical
     representative array and a dense id assigned in first-seen order.
     After interning, set equality is id equality and every id-keyed
     table probe hashes a single int — the FNV walk over the elements
     runs exactly once per distinct set, at interning time. *)
  type t = {
    table : handle Tbl.t;
    mutable by_id : handle array;  (** dense id -> handle, [size] live *)
    mutable size : int;
  }

  let create () =
    { table = Tbl.create 256; by_id = Array.make 64 no_handle; size = 0 }
  let size t = t.size

  let intern t (set : int array) =
    match Tbl.find_opt t.table set with
    | Some h -> h
    | None ->
        let h = { id = t.size; set } in
        Tbl.replace t.table set h;
        if t.size = Array.length t.by_id then begin
          let grown = Array.make (2 * t.size) no_handle in
          Array.blit t.by_id 0 grown 0 t.size;
          t.by_id <- grown
        end;
        t.by_id.(t.size) <- h;
        t.size <- t.size + 1;
        h

  let get t id =
    if id < 0 || id >= t.size then invalid_arg "Propset.Interner.get";
    t.by_id.(id)
end

type ctx = {
  mutable pre_canon : int array array;
      (** per action id, canonical preconditions *)
  interner : Interner.t;
}

(* Add-closures need no table: {!Action.t} keeps them strictly
   increasing, so [regress] merges them as they are. *)
let pre_tables (pb : Problem.t) =
  Array.map
    (fun (a : Action.t) -> canonical_array pb a.Action.pre)
    pb.Problem.actions

let make_ctx (pb : Problem.t) =
  { pre_canon = pre_tables pb; interner = Interner.create () }

(* Rebinding a ctx to a recompiled problem keeps the interner (prop ids —
   and therefore canonical sets and their dense handle ids — are stable
   across topology deltas; see {!Session}) but rebuilds the per-action
   tables, which are keyed by action ids the recompile renumbers.  The
   caller is responsible for checking that [pb.init] is unchanged — a
   different initial section changes what "canonical" means and requires
   a fresh ctx. *)
let refresh_ctx ctx (pb : Problem.t) = ctx.pre_canon <- pre_tables pb

let intern ctx set = Interner.intern ctx.interner set
let handle_of_id ctx id = Interner.get ctx.interner id
let interned_count ctx = Interner.size ctx.interner

(* Merge-based (set \ closure) ∪ pre over three sorted arrays. The result
   is sorted and duplicate-free; [set] and [pre] contain no initially-true
   propositions, so the result is canonical. *)
let regress ctx (set : int array) (a : Action.t) =
  let closure = a.Action.add_closure
  and pre = ctx.pre_canon.(a.Action.act_id) in
  let ns = Array.length set
  and nc = Array.length closure
  and np = Array.length pre in
  let out = Array.make (ns + np) 0 in
  let k = ref 0 in
  let push p =
    if !k = 0 || out.(!k - 1) <> p then begin
      out.(!k) <- p;
      incr k
    end
  in
  (* Walk [set] and [pre] in merged order, skipping [set] elements that
     appear in [closure]. *)
  let i = ref 0 and j = ref 0 and c = ref 0 in
  let in_closure p =
    while !c < nc && closure.(!c) < p do
      incr c
    done;
    !c < nc && closure.(!c) = p
  in
  while !i < ns || !j < np do
    if !j >= np || (!i < ns && set.(!i) <= pre.(!j)) then begin
      let p = set.(!i) in
      incr i;
      if not (in_closure p) then push p
    end
    else begin
      push pre.(!j);
      incr j
    end
  done;
  if !k = ns + np then out else Array.sub out 0 !k

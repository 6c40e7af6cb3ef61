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

(* ------------------------------------------------------------------ *)
(* Hash-consed handles                                                 *)
(* ------------------------------------------------------------------ *)

type handle = { id : int; set : int array }

let no_handle = { id = -1; set = [||] }

(* FNV-1a over the first [len] elements. *)
let hash_prefix (a : int array) len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor a.(i)) * 0x01000193
  done;
  !h land max_int

let same_prefix (set : int array) (buf : int array) len =
  Array.length set = len
  &&
  let k = ref 0 in
  while !k < len && set.(!k) = buf.(!k) do
    incr k
  done;
  !k = len

module Interner = struct
  (* Hash-consing of canonical sets: every distinct set gets one physical
     representative array and a dense id assigned in first-seen order.
     The table is open addressing over the ids themselves: [slots] holds
     an id or -1, probed linearly from the set's hash; [hashes] keeps
     each id's hash so a probe compares elements only on a hash match
     and a resize re-slots ids without re-walking their sets. *)
  type t = {
    mutable by_id : handle array;  (** dense id -> handle, [size] live *)
    mutable hashes : int array;  (** dense id -> hash of its set *)
    mutable slots : int array;  (** power-of-two table of ids, -1 = empty *)
    mutable size : int;
  }

  let create () =
    {
      by_id = Array.make 64 no_handle;
      hashes = Array.make 64 0;
      slots = Array.make 128 (-1);
      size = 0;
    }

  let size t = t.size

  (* The slot holding the set equal to [buf]'s [len]-prefix, or the empty
     slot where it belongs. *)
  let probe t (buf : int array) len h =
    let mask = Array.length t.slots - 1 in
    let i = ref (h land mask) in
    while
      let id = t.slots.(!i) in
      id >= 0 && not (t.hashes.(id) = h && same_prefix t.by_id.(id).set buf len)
    do
      i := (!i + 1) land mask
    done;
    !i

  (* Doubling keeps the load at or below one half. *)
  let grow t =
    let n = t.size in
    let by_id = Array.make (2 * n) no_handle
    and hashes = Array.make (2 * n) 0 in
    Array.blit t.by_id 0 by_id 0 n;
    Array.blit t.hashes 0 hashes 0 n;
    t.by_id <- by_id;
    t.hashes <- hashes;
    let slots = Array.make (4 * n) (-1) in
    let mask = (4 * n) - 1 in
    for id = 0 to n - 1 do
      let i = ref (hashes.(id) land mask) in
      while slots.(!i) >= 0 do
        i := (!i + 1) land mask
      done;
      slots.(!i) <- id
    done;
    t.slots <- slots

  (* The handle of [buf]'s [len]-prefix.  A new set's representative is
     [buf] itself when [adopt] (then [len] is its whole length), else a
     copy of the prefix. *)
  let find_or_add t (buf : int array) len ~adopt =
    let h = hash_prefix buf len in
    let i = probe t buf len h in
    let id = t.slots.(i) in
    if id >= 0 then t.by_id.(id)
    else begin
      let set = if adopt then buf else Array.sub buf 0 len in
      let id = t.size in
      let handle = { id; set } in
      t.slots.(i) <- id;
      t.by_id.(id) <- handle;
      t.hashes.(id) <- h;
      t.size <- id + 1;
      if t.size = Array.length t.by_id then grow t;
      handle
    end

  let intern t (set : int array) =
    find_or_add t set (Array.length set) ~adopt:true

  let get t id =
    if id < 0 || id >= t.size then invalid_arg "Propset.Interner.get";
    t.by_id.(id)
end

type ctx = {
  mutable pre_canon : int array array;
      (** per action id, canonical preconditions *)
  interner : Interner.t;
  mutable scratch : int array;
      (** merge buffer of {!regress_intern}; only a new set is copied
          out of it *)
}

(* Add-closures need no table: {!Action.t} keeps them strictly
   increasing, so [regress_intern] merges them as they are. *)
let make_ctx (pb : Problem.t) =
  {
    pre_canon =
      Array.map
        (fun (a : Action.t) -> canonical_array pb a.Action.pre)
        pb.Problem.actions;
    interner = Interner.create ();
    scratch = Array.make 64 0;
  }

(* Rebinding a ctx to a recompiled problem keeps the interner (prop ids —
   and therefore canonical sets and their dense handle ids — are stable
   across topology deltas, and the caller guarantees an unchanged
   [init], which is what "canonical" depends on).  The per-action tables
   are keyed by action ids the recompile renumbers; a field-equal action
   keeps its canonical preconditions, so the old rows move to the new
   ids. *)
let refresh_ctx ~map ctx (pb : Problem.t) =
  let rows = Array.make (Array.length pb.Problem.actions) [||] in
  Array.iteri
    (fun a a' -> if a' >= 0 then rows.(a') <- ctx.pre_canon.(a))
    map;
  ctx.pre_canon <- rows

let intern ctx set = Interner.intern ctx.interner set
let handle_of_id ctx id = Interner.get ctx.interner id
let interned_count ctx = Interner.size ctx.interner

(* Merge-based (set \ closure) ∪ pre over three sorted arrays, written
   into the ctx's scratch buffer.  The result is sorted and
   duplicate-free; [set] and [pre] contain no initially-true
   propositions, so it is canonical and is interned straight from the
   buffer. *)
let regress_intern ctx (set : int array) (a : Action.t) =
  let closure = a.Action.add_closure
  and pre = ctx.pre_canon.(a.Action.act_id) in
  let ns = Array.length set
  and nc = Array.length closure
  and np = Array.length pre in
  if Array.length ctx.scratch < ns + np then
    ctx.scratch <- Array.make (2 * (ns + np)) 0;
  let out = ctx.scratch in
  let k = ref 0 and i = ref 0 and j = ref 0 and c = ref 0 in
  (* Walk [set] and [pre] in merged order, skipping [set] elements that
     appear in [closure] (-1 marks a skipped element). *)
  while !i < ns || !j < np do
    let p =
      if !j >= np || (!i < ns && set.(!i) <= pre.(!j)) then begin
        let p = set.(!i) in
        incr i;
        while !c < nc && closure.(!c) < p do
          incr c
        done;
        if !c < nc && closure.(!c) = p then -1 else p
      end
      else begin
        let p = pre.(!j) in
        incr j;
        p
      end
    in
    if p >= 0 && (!k = 0 || out.(!k - 1) <> p) then begin
      out.(!k) <- p;
      incr k
    end
  done;
  Interner.find_or_add ctx.interner out !k ~adopt:false

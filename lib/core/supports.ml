(* Shared relevant-supports precomputation for the two set-regression
   searches (SLRG and RG).  Both phases branch on "distinct relevant
   actions supporting any pending proposition"; keeping the filtered
   per-proposition tables and the scratch bitmap in one place means the
   phases cannot drift apart.

   The searches re-expand the same pending sets across queries, so the
   expansion of a set — its candidate actions and, slot by slot, the
   interned regression through each — is kept in rows indexed by the
   set's dense interned id: a revisit is two array loads, no hashing.
   Successor slots are filled on first read only, so sets are interned
   in exactly the order the searches first ask for them. *)

type t = {
  ctx : Propset.ctx;
  mutable actions : Action.t array;
  rel : int array array;
      (** per proposition: relevant supporting actions, ascending id *)
  seen : bool array;  (** scratch bitmap over action ids, false at rest *)
  mutable buf : int array;
      (** scratch row: a set's distinct candidates are gathered here
          before the row is copied out; doubles when a set needs more *)
  mutable cands : int array array;
      (** per set id: its candidate actions, [unfilled] until first read *)
  mutable succs : Propset.handle array array;
      (** per set id, parallel to [cands]: slot [i] is the set regressed
          through candidate [i], [Propset.no_handle] until first read *)
}

(* A physically unique sentinel: every empty array is the same atom, so
   an unfilled row must be a distinct non-empty block.  A [succs] row is
   only read after [candidates] has filled it. *)
let unfilled = [| -1 |]

let make ctx (pb : Problem.t) plrg =
  let rel =
    Array.map
      (fun aids ->
        let arr =
          Array.of_list (List.filter (Plrg.action_relevant plrg) aids)
        in
        Array.sort Int.compare arr;
        arr)
      pb.Problem.supports
  in
  {
    ctx;
    actions = pb.Problem.actions;
    rel;
    seen = Array.make (Array.length pb.Problem.actions) false;
    buf = Array.make 64 0;
    cands = Array.make 64 unfilled;
    succs = Array.make 64 [||];
  }

(* The distinct candidates of [set], ascending.  Rows hold tens of
   actions, so they are insertion-sorted in place rather than through
   [Array.sort]'s comparison closure. *)
let collect t (set : int array) =
  let n = ref 0 in
  for k = 0 to Array.length set - 1 do
    let rel = t.rel.(set.(k)) in
    for m = 0 to Array.length rel - 1 do
      let aid = rel.(m) in
      if not t.seen.(aid) then begin
        t.seen.(aid) <- true;
        if !n = Array.length t.buf then t.buf <- Array.append t.buf t.buf;
        t.buf.(!n) <- aid;
        incr n
      end
    done
  done;
  let out = Array.sub t.buf 0 !n in
  for k = 0 to !n - 1 do
    let aid = out.(k) in
    t.seen.(aid) <- false;
    let j = ref k in
    while !j > 0 && out.(!j - 1) > aid do
      out.(!j) <- out.(!j - 1);
      decr j
    done;
    out.(!j) <- aid
  done;
  out

let grow t id =
  let n = Array.length t.cands in
  let cap = Stdlib.max (2 * n) (id + 1) in
  let cands = Array.make cap unfilled and succs = Array.make cap [||] in
  Array.blit t.cands 0 cands 0 n;
  Array.blit t.succs 0 succs 0 n;
  t.cands <- cands;
  t.succs <- succs

let candidates t (h : Propset.handle) =
  let id = h.Propset.id in
  if id >= Array.length t.cands then grow t id;
  let row = t.cands.(id) in
  if row != unfilled then row
  else begin
    let row = collect t h.Propset.set in
    t.cands.(id) <- row;
    t.succs.(id) <- Array.make (Array.length row) Propset.no_handle;
    row
  end

let successor t (h : Propset.handle) i =
  let row = candidates t h in
  let slots = t.succs.(h.Propset.id) in
  let s = slots.(i) in
  if s != Propset.no_handle then s
  else begin
    let s = Propset.regress_intern t.ctx h.Propset.set t.actions.(row.(i)) in
    slots.(i) <- s;
    s
  end

let rebind t (pb : Problem.t) = t.actions <- pb.Problem.actions

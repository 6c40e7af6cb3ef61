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
  actions : Action.t array;
  rel : int array array;
      (** per proposition: relevant supporting actions, ascending id *)
  seen : bool array;  (** scratch bitmap over action ids, false at rest *)
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
    cands = Array.make 64 unfilled;
    succs = Array.make 64 [||];
  }

let collect t (set : int array) =
  let acc = ref [] in
  let count = ref 0 in
  Array.iter
    (fun p ->
      Array.iter
        (fun aid ->
          if not t.seen.(aid) then begin
            t.seen.(aid) <- true;
            acc := aid :: !acc;
            incr count
          end)
        t.rel.(p))
    set;
  let out = Array.make !count 0 in
  List.iteri (fun i aid -> out.(i) <- aid) !acc;
  List.iter (fun aid -> t.seen.(aid) <- false) !acc;
  Array.sort Int.compare out;
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
    let s =
      Propset.intern t.ctx
        (Propset.regress t.ctx h.Propset.set t.actions.(row.(i)))
    in
    slots.(i) <- s;
    s
  end

(* Dependency-tracked invalidation support for long-lived sessions.

   A topology delta touches nodes and links; an action is {e tainted} when
   it is grounded at a touched site or (transitively) when one of its
   preconditions can only be produced by tainted actions whose outputs the
   delta may have changed.  We over-approximate with a worklist fixpoint:

   - every action at a touched site is tainted;
   - every add-closure proposition of a tainted action is {e dirty};
   - every action with a dirty precondition is tainted.

   The key soundness property (relied on by [Slrg.refresh]): any action
   applicable to a set with no dirty proposition is untainted, and an
   untainted action's preconditions are all clean — so regression from a
   clean set only ever meets actions identical in the old and new
   problems, and cached exact costs over clean sets stay valid. *)
let taint (pb : Problem.t) ~node_touched ~link_touched =
  let n_actions = Array.length pb.Problem.actions in
  let n_props = Array.length pb.Problem.init in
  let tainted = Array.make n_actions false in
  let dirty = Array.make n_props false in
  (* Reverse index: proposition -> actions consuming it as a
     precondition. *)
  let consumers = Array.make n_props [] in
  Array.iter
    (fun (a : Action.t) ->
      Array.iter
        (fun p -> consumers.(p) <- a.Action.act_id :: consumers.(p))
        a.Action.pre)
    pb.Problem.actions;
  let stack = Stack.create () in
  let taint_act aid =
    if not tainted.(aid) then begin
      tainted.(aid) <- true;
      Array.iter
        (fun p ->
          if not dirty.(p) then begin
            dirty.(p) <- true;
            Stack.push p stack
          end)
        pb.Problem.actions.(aid).Action.add_closure
    end
  in
  Array.iter
    (fun (a : Action.t) ->
      let touched =
        match a.Action.kind with
        | Action.Place { node; _ } -> node_touched node
        | Action.Cross { link; src; dst; _ } ->
            link_touched link || node_touched src || node_touched dst
      in
      if touched then taint_act a.Action.act_id)
    pb.Problem.actions;
  while not (Stack.is_empty stack) do
    let p = Stack.pop stack in
    List.iter taint_act consumers.(p)
  done;
  (tainted, dirty)

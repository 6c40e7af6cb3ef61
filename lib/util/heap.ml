(* Parallel arrays, the priorities in flat float arrays: an add stores
   three scalars and a value pointer, and a pop allocates nothing. *)
type 'a t = {
  mutable vals : 'a array;  (** [[||]] until the first add *)
  mutable prio : Float.Array.t;
  mutable prio2 : Float.Array.t;
  mutable seq : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    vals = [||];
    prio = Float.Array.make 16 0.;
    prio2 = Float.Array.make 16 0.;
    seq = Array.make 16 0;
    size = 0;
    next_seq = 0;
  }

let is_empty h = h.size = 0
let length h = h.size
let insertions h = h.next_seq

let reset h =
  h.size <- 0;
  h.next_seq <- 0

(* The four arrays share one capacity: the keys start at 16 slots and
   [vals] gets its first 16 at the first add, made from that value.
   After that [vals] grows by appending itself: [Array.make n v] with
   [n] above 256 words and a young block [v] forces a minor collection
   inside [caml_make_vect]. *)
let grow h v =
  let n = Array.length h.vals in
  if n = 0 then h.vals <- Array.make (Array.length h.seq) v
  else begin
    h.vals <- Array.append h.vals h.vals;
    let prio = Float.Array.make (2 * n) 0.
    and prio2 = Float.Array.make (2 * n) 0.
    and seq = Array.make (2 * n) 0 in
    Float.Array.blit h.prio 0 prio 0 n;
    Float.Array.blit h.prio2 0 prio2 0 n;
    Array.blit h.seq 0 seq 0 n;
    h.prio <- prio;
    h.prio2 <- prio2;
    h.seq <- seq
  end

(* Slot [i] sorts before the key (p, p2, s) on smaller priority, then
   smaller secondary priority, then smaller sequence number. *)
let[@inline] slot_before h i p p2 s =
  let pi = Float.Array.unsafe_get h.prio i in
  pi < p
  || pi = p
     &&
     let p2i = Float.Array.unsafe_get h.prio2 i in
     p2i < p2 || (p2i = p2 && Array.unsafe_get h.seq i < s)

let[@inline] move h ~src ~dst =
  Array.unsafe_set h.vals dst (Array.unsafe_get h.vals src);
  Float.Array.unsafe_set h.prio dst (Float.Array.unsafe_get h.prio src);
  Float.Array.unsafe_set h.prio2 dst (Float.Array.unsafe_get h.prio2 src);
  Array.unsafe_set h.seq dst (Array.unsafe_get h.seq src)

(* Both sifts are hole-based: the moving entry is kept in locals and
   written exactly once, into its final slot. *)
let add h ~prio ?(prio2 = 0.) ?seq value =
  if Float.is_nan prio then invalid_arg "Heap.add: NaN priority";
  if Float.is_nan prio2 then invalid_arg "Heap.add: NaN secondary priority";
  if h.size = Array.length h.vals then grow h value;
  let s = match seq with Some s -> s | None -> h.next_seq in
  h.next_seq <- h.next_seq + 1;
  let i = ref h.size in
  h.size <- h.size + 1;
  let placed = ref false in
  while (not !placed) && !i > 0 do
    let parent = (!i - 1) / 2 in
    if slot_before h parent prio prio2 s then placed := true
    else begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
  done;
  Array.unsafe_set h.vals !i value;
  Float.Array.unsafe_set h.prio !i prio;
  Float.Array.unsafe_set h.prio2 !i prio2;
  Array.unsafe_set h.seq !i s

let[@inline] top_prio h =
  if h.size = 0 then invalid_arg "Heap.top_prio: empty heap";
  Float.Array.unsafe_get h.prio 0

let[@inline] top_seq h =
  if h.size = 0 then invalid_arg "Heap.top_seq: empty heap";
  Array.unsafe_get h.seq 0

let pop_value h =
  if h.size = 0 then invalid_arg "Heap.pop_value: empty heap";
  let top = Array.unsafe_get h.vals 0 in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root. *)
    let v = Array.unsafe_get h.vals n
    and p = Float.Array.unsafe_get h.prio n
    and p2 = Float.Array.unsafe_get h.prio2 n
    and s = Array.unsafe_get h.seq n in
    let i = ref 0 in
    let placed = ref false in
    while not !placed do
      let l = (2 * !i) + 1 in
      if l >= n then placed := true
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && slot_before h r
                 (Float.Array.unsafe_get h.prio l)
                 (Float.Array.unsafe_get h.prio2 l)
                 (Array.unsafe_get h.seq l)
          then r
          else l
        in
        if slot_before h c p p2 s then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else placed := true
      end
    done;
    Array.unsafe_set h.vals !i v;
    Float.Array.unsafe_set h.prio !i p;
    Float.Array.unsafe_set h.prio2 !i p2;
    Array.unsafe_set h.seq !i s
  end;
  top

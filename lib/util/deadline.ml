(* Cooperative deadline/cancellation tokens.

   A token is polled, never preemptive: the planner phases call {!expired}
   (or {!guard}) at their loop heads — per grounded action group in
   Compile, per relaxation in Plrg, per A* expansion in Slrg/Rg — and wind
   down gracefully when it fires.  The common case is [none], which must
   cost one physical comparison, so the type is an option under the hood. *)

exception Expired of string

type t = (unit -> bool) option

let none : t = None

let after_ms ms =
  if Float.is_nan ms || ms < 0. then invalid_arg "Deadline.after_ms";
  let limit = Timer.now_s () +. (ms /. 1000.) in
  Some (fun () -> Timer.now_s () > limit)

let counting n =
  let left = ref n in
  Some
    (fun () ->
      if !left <= 0 then true
      else begin
        decr left;
        false
      end)

let[@inline] expired (d : t) =
  match d with None -> false | Some f -> f ()

let guard (d : t) ~phase = if expired d then raise (Expired phase)

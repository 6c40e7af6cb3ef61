module Heap = Sekitei_util.Heap
module Deadline = Sekitei_util.Deadline

type t = {
  problem : Problem.t;
  costs : float array;  (** per proposition *)
  action_costs : float array;  (** cost-to-enable + own cost, per action *)
  relevant_act : bool array;
  relevant_prop : bool array;
}

let build ?(deadline = Deadline.none) (pb : Problem.t) =
  let n_props = Prop.count pb.props in
  let n_acts = Array.length pb.actions in
  let costs = Array.make n_props Float.infinity in
  let action_costs = Array.make n_acts Float.infinity in
  (* Per-action countdown of unfinalized preconditions and the running max
     of their costs. *)
  let missing = Array.map (fun a -> Array.length a.Action.pre) pb.actions in
  let pre_max = Array.make n_acts 0. in
  let finalized = Array.make n_props false in
  let heap = Heap.create_sized 1024 in
  let relax_action aid =
    let a = pb.actions.(aid) in
    let total = a.Action.cost_lb +. pre_max.(aid) in
    action_costs.(aid) <- total;
    Array.iter
      (fun pid ->
        if total < costs.(pid) then begin
          costs.(pid) <- total;
          Heap.add heap ~prio:total pid
        end)
      a.Action.add_closure
  in
  (* Index actions by precondition for the countdown. *)
  let consumers = Array.make n_props [] in
  for aid = n_acts - 1 downto 0 do
    let a = pb.actions.(aid) in
    Array.iter (fun pid -> consumers.(pid) <- aid :: consumers.(pid)) a.Action.pre
  done;
  (* Seed: initial propositions cost 0; precondition-free actions ready. *)
  Array.iteri
    (fun pid holds ->
      if holds then begin
        costs.(pid) <- 0.;
        Heap.add heap ~prio:0. pid
      end)
    pb.init;
  Array.iteri (fun aid m -> if m = 0 then relax_action aid) missing;
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (pid, c) ->
        Deadline.guard deadline ~phase:"plrg";
        if not finalized.(pid) then begin
          finalized.(pid) <- true;
          ignore c;
          List.iter
            (fun aid ->
              pre_max.(aid) <- Float.max pre_max.(aid) costs.(pid);
              missing.(aid) <- missing.(aid) - 1;
              if missing.(aid) = 0 then relax_action aid)
            consumers.(pid)
        end;
        loop ()
  in
  loop ();
  (* Backward-relevant cone from the goals: a proposition is relevant when
     needed by a relevant action or a goal; an action is relevant when it
     has finite cost and supports a relevant proposition. *)
  let relevant_prop = Array.make n_props false in
  let relevant_act = Array.make n_acts false in
  let queue = Queue.create () in
  Array.iter
    (fun g ->
      if not relevant_prop.(g) then begin
        relevant_prop.(g) <- true;
        Queue.add g queue
      end)
    pb.goal_props;
  while not (Queue.is_empty queue) do
    let pid = Queue.pop queue in
    if Float.is_finite costs.(pid) then
      List.iter
        (fun aid ->
          if (not relevant_act.(aid)) && Float.is_finite action_costs.(aid) then begin
            relevant_act.(aid) <- true;
            Array.iter
              (fun pre ->
                if not relevant_prop.(pre) then begin
                  relevant_prop.(pre) <- true;
                  Queue.add pre queue
                end)
              pb.actions.(aid).Action.pre
          end)
        pb.supports.(pid)
  done;
  { problem = pb; costs; action_costs; relevant_act; relevant_prop }

let cost t pid = t.costs.(pid)

let goals_reachable t =
  Array.for_all (fun g -> Float.is_finite t.costs.(g)) t.problem.Problem.goal_props

(* Goal proposition ids with infinite cost — the PLRG's unreachability
   proof, surfaced as evidence in {!Planner.Unreachable_goal}. *)
let unreachable_goals t =
  Array.to_list t.problem.Problem.goal_props
  |> List.filter (fun g -> not (Float.is_finite t.costs.(g)))

let relevant_actions t =
  let acc = ref [] in
  for aid = Array.length t.relevant_act - 1 downto 0 do
    if t.relevant_act.(aid) then acc := aid :: !acc
  done;
  !acc

let action_relevant t aid = t.relevant_act.(aid)

let stats t =
  let props = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.relevant_prop in
  let acts = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.relevant_act in
  (props, acts)

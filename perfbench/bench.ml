(* Spec-to-verdict benchmark for the Sekitei planner.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Every request starts from DSL text and ends in a checked verdict:
   parse, validate, compile and preflight (what `sekitei check` does),
   then plan with every emitted plan independently certified (what
   `sekitei plan --verify` does).  The session-churn workload also
   streams topology deltas into long-lived sessions and re-plans warm
   after each one.

   The last line of standard output is one JSON object,
   {"correct": bool, "attempted": int, "failed": int, "metrics": {...}},
   holding the end-to-end metrics with --trace 0 and the per-layer
   metrics with --trace 1.  README.md in this directory documents the
   workloads and every metric. *)

module Topology = Sekitei_network.Topology
module Generators = Sekitei_network.Generators
module Routing = Sekitei_network.Routing
module Dsl = Sekitei_spec.Dsl
module Validate = Sekitei_spec.Validate
module Compile = Sekitei_core.Compile
module Certifier = Sekitei_core.Certifier
module Planner = Sekitei_core.Planner
module Session = Sekitei_core.Session
module Plan = Sekitei_core.Plan
module Preflight = Sekitei_analysis.Preflight
module Certify = Sekitei_analysis.Certify
module Diagnostic = Sekitei_util.Diagnostic
module Histogram = Sekitei_util.Histogram
module Prng = Sekitei_util.Prng
module Timer = Sekitei_util.Timer
module Registry = Sekitei_telemetry.Registry
module Media = Sekitei_domains.Media

(* ------------------------------------------------------------------ *)
(* Layer spans                                                         *)
(* ------------------------------------------------------------------ *)

(* The benchmark's own spans around each call into a layer.  Only the
   traced run records them; the untraced run times whole requests. *)
type layer = Parse | Validate | Compile | Analysis | Plan | Update

(* Analysis is sekitei.analysis: the preflight before search and the
   certification of every emitted plan.  Update is Session.update:
   incremental recompile, PLRG rebuild and oracle refresh. *)
let layers =
  [ (Parse, "parse_ms"); (Validate, "validate_ms"); (Compile, "compile_ms");
    (Analysis, "analysis_ms"); (Plan, "plan_ms"); (Update, "update_ms") ]

let tracing = ref false
let busy_ms = Hashtbl.create 8
let charge layer ms =
  Hashtbl.replace busy_ms layer
    (ms +. Option.value ~default:0. (Hashtbl.find_opt busy_ms layer))

let span layer f =
  if not !tracing then f ()
  else begin
    let t = Timer.start () in
    let r = f () in
    charge layer (Timer.elapsed_ms t);
    r
  end

(* Run [f] with spans off: correctness checks outside the measured
   requests must not show up in the per-layer figures. *)
let untraced f =
  let saved = !tracing in
  tracing := false;
  Fun.protect ~finally:(fun () -> tracing := saved) f

(* Certification runs inside the planner's plan call, through the
   Certifier hook.  Wrapping the independent checker here charges its
   time to the analysis layer, so the plan layer reports self time. *)
let install_certifier () =
  Certifier.install (fun pb plan ->
      let t = Timer.start () in
      let r =
        match Certify.check pb plan with
        | [] -> Ok ()
        | d :: _ -> Error (Diagnostic.to_string d)
      in
      if !tracing then begin
        let ms = Timer.elapsed_ms t in
        charge Analysis ms;
        charge Plan (-.ms)
      end;
      r)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type shape = { transit : int; stubs : int; stub_size : int }

type net = {
  topo : Topology.t;
  server : int;
  client : int;
  uplink : int;  (** the WAN link joining the client's stub to the core *)
}

let kind_of topo l = (Topology.get_link topo l).Topology.kind

(* A transit-stub network with the media server and client one LAN hop
   inside two sibling stubs of transit router 0.  Every route between
   them crosses at least LAN, WAN, WAN, LAN, as in the paper's Large
   network, so each level scenario has the same optimal cost on every
   instance while the rest of the network varies with the seed. *)
let placed_network rng shape =
  let topo =
    Generators.transit_stub ~rng ~extra_edge_prob:0. ~transit:shape.transit
      ~stubs_per_transit:shape.stubs ~stub_size:shape.stub_size ()
  in
  let stub_of n = (n - shape.transit) / shape.stub_size in
  let uplinks =
    List.filter
      (fun (peer, l) -> peer >= shape.transit && kind_of topo l = Topology.Wan)
      (Topology.adjacent topo 0)
  in
  let inside gw =
    List.filter_map
      (fun (peer, l) ->
        if kind_of topo l = Topology.Lan && stub_of peer = stub_of gw then
          Some peer
        else None)
      (Topology.adjacent topo gw)
  in
  let candidates =
    List.concat_map
      (fun (g1, _) ->
        List.concat_map
          (fun (g2, uplink) ->
            if stub_of g1 = stub_of g2 then []
            else
              List.concat_map
                (fun server ->
                  List.filter_map
                    (fun client ->
                      if Routing.hop_distance topo server client = Some 4 then
                        Some { topo; server; client; uplink }
                      else None)
                    (inside g2))
                (inside g1))
          uplinks)
      uplinks
  in
  match candidates with
  | [] -> invalid_arg "placed_network: needs two stubs per transit router"
  | _ -> List.nth candidates (Prng.int rng (List.length candidates))

type verdict =
  | Planned of float  (** certified plan with this cost bound *)
  | No_plan  (** proved infeasible, by preflight or by the search *)
  | Bad of string  (** an answer a correct planner never gives *)

(* [expect] is what a correct planner answers; [topo] is the network
   parsed back from [text], so set-up checks that every generated spec
   round-trips through the parser. *)
type instance = { net : net; text : string; topo : Topology.t; expect : verdict }

let instance net text expect =
  match (Dsl.parse_document text).Dsl.topo with
  | Some topo -> { net; text; topo; expect }
  | None -> failwith "generated spec has no network"

let render ?demand (net : net) topo level =
  let app = Media.app ?demand ~server:net.server ~client:net.client () in
  Dsl.print_document ~topo app (Media.leveling level app)

(* On a LAN-WAN-WAN-LAN route the optimal cost bound at scenarios C and
   D is Table 2's Large-row figure, 76. *)
let feasible shape level rng _ =
  let net = placed_network rng shape in
  instance net (render net net.topo level) (Planned 76.)

(* Three ways to leave no plan, cycled in a fixed order so every run
   sees the same mix.  Greedy levels (scenario A) leave the search to
   exhaust every candidate tail; preflight proves a cut uplink
   infeasible before search; an over-demanding client reaches the
   planner, which finds no plan. *)
let infeasible shape rng i =
  let net = placed_network rng shape in
  let text =
    match i mod 4 with
    | 0 | 2 -> render net net.topo Media.A
    | 1 -> render net (Topology.remove_link net.topo net.uplink) Media.C
    | _ -> render ~demand:250. net net.topo Media.C
  in
  instance net text No_plan

(* ------------------------------------------------------------------ *)
(* The spec-to-verdict pipeline                                        *)
(* ------------------------------------------------------------------ *)

let config =
  { Planner.default_config with Planner.validate_spec = false; certify = true }

let verdict_of_report (r : Planner.report) =
  match r.Planner.result with
  | Ok p -> Planned p.Plan.cost_lb
  | Error (Planner.Unreachable_goal _ | Planner.Resource_exhausted) -> No_plan
  | Error e -> Bad (Format.asprintf "%a" Planner.pp_failure e)

(* A plan call on a [cold] session compiles the spec again, as the CLI
   does after `sekitei check`: the preflight's problem is not handed
   on.  That compile is charged to the compile layer, not to plan. *)
let planned ~cold f =
  let r = span Plan f in
  if !tracing && cold then begin
    let ms = r.Planner.phases.Planner.compile.Planner.ms in
    charge Compile ms;
    charge Plan (-.ms)
  end;
  verdict_of_report r

(* Parse, validate and check a spec: [Ok request] when it needs a
   search, [Error verdict] when the answer is already known. *)
let check text =
  let doc = span Parse (fun () -> Dsl.parse_document text) in
  match doc.Dsl.topo with
  | None -> Error (Bad "spec has no network")
  | Some topo -> (
      let app = doc.Dsl.app and leveling = doc.Dsl.leveling in
      match span Validate (fun () -> Validate.check_diagnostics topo app) with
      | d :: _ -> Error (Bad (Diagnostic.to_string d))
      | [] ->
          let pb = span Compile (fun () -> Compile.compile topo app leveling) in
          if span Analysis (fun () -> Diagnostic.errors (Preflight.check pb)) <> []
          then Error No_plan
          else Ok (Planner.request ~config topo app ~leveling))

(* Cost bounds are float sums whose last bits depend on summation
   order (and warm and cold plans may break f-ties differently), so
   costs agree within a relative 1e-9. *)
let agrees a b =
  match (a, b) with
  | Planned c, Planned c' -> Float.abs (c -. c') <= 1e-9 *. Float.max 1. c
  | No_plan, No_plan -> true
  | _ -> false

let describe = function
  | Planned c -> Printf.sprintf "plan of cost %.17g" c
  | No_plan -> "no plan"
  | Bad s -> s

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* A run replays one fixed sequence of requests ("slots") in passes
   until its time is up, and each slot keeps its best latency over the
   passes.  The host's speed drifts by tens of percent over seconds to
   minutes; the best of many passes filters out slow spells shorter
   than a run while every request stays cold.  A slot's first answer is checked; later passes
   must repeat it. *)
type slots = {
  best_ms : float array;
  answers : verdict option array;
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string option;
}

let slots n =
  { best_ms = Array.make n infinity; answers = Array.make n None;
    attempted = 0; failed = 0; first_error = None }

(* Time request [f] in slot [j]; [check] judges its first answer, off
   the clock.  False when [f] raised. *)
let measure t j ~label ~check f =
  t.attempted <- t.attempted + 1;
  let fail why =
    t.failed <- t.failed + 1;
    if t.first_error = None then t.first_error <- Some (label ^ ": " ^ why)
  in
  let clock = Timer.start () in
  match f () with
  | exception e ->
      fail (Printexc.to_string e);
      false
  | v ->
      t.best_ms.(j) <- Float.min t.best_ms.(j) (Timer.elapsed_ms clock);
      let ok =
        match t.answers.(j) with
        | None ->
            t.answers.(j) <- Some v;
            untraced (fun () -> check v)
        | Some first -> agrees first v
      in
      if not ok then fail (describe v);
      true

let cold_verdict ?metrics text =
  match check text with
  | Error v -> v
  | Ok req -> planned ~cold:true (fun () -> Planner.plan ?metrics req)

(* One pass over the corpus, stopping early at [until]. *)
let cold_pass t ~metrics ~until corpus =
  Array.iteri
    (fun i inst ->
      if Timer.now_s () < until then
        ignore
          (measure t i ~label:(Printf.sprintf "spec %d" i) ~check:(agrees inst.expect)
             (fun () -> cold_verdict ~metrics inst.text)
            : bool))
    corpus

(* Session churn: a session opens on a corpus spec (one cold request),
   absorbs one delta of each kind Session.update handles, with a warm
   re-plan after each (one request per delta), and is dropped.  In
   order: a link's bandwidth and a node's CPU raised by a fifth, then a
   link removed and a node failed, each off every shortest
   server-client route so the instance keeps its optimum.  The seed
   picks the link or node.  The mix is a coverage choice, not a traffic
   model: neither the paper nor the repository says which deltas
   sessions receive.  Every warm answer is compared with a cold plan of
   the same topology. *)
type script = { spec : instance; deltas : Session.delta array }

let apply topo = function
  | Session.Set_node_resource { node; resource; value } ->
      Topology.with_node_resources topo node [ (resource, value) ]
  | Session.Set_link_resource { link; resource; value } ->
      Topology.with_link_resources topo link [ (resource, value) ]
  | Session.Remove_link { link } -> Topology.remove_link topo link
  | Session.Fail_node { node } -> Topology.mark_node_failed topo node

let script rng spec =
  let net = spec.net in
  let pick = function
    | [] -> invalid_arg "script: no candidate for a delta"
    | xs -> List.nth xs (Prng.int rng (List.length xs))
  in
  let links topo =
    List.map (fun (l : Topology.link) -> l.Topology.link_id) (Array.to_list (Topology.links topo))
  in
  let nodes topo =
    List.filter (Topology.node_alive topo) (List.init (Topology.node_count topo) Fun.id)
  in
  let off_route topo = Routing.hop_distance topo net.server net.client = Some 4 in
  let kinds =
    [ (fun topo ->
        let link = pick (links topo) in
        Session.Set_link_resource
          { link; resource = "lbw"; value = Float.round (1.2 *. Topology.link_resource topo link "lbw") });
      (fun topo ->
        let node = pick (nodes topo) in
        Session.Set_node_resource
          { node; resource = "cpu"; value = 1.2 *. Topology.node_resource topo node "cpu" });
      (fun topo ->
        let off = List.filter (fun l -> off_route (Topology.remove_link topo l)) (links topo) in
        Session.Remove_link { link = pick off });
      (fun topo ->
        let off =
          List.filter
            (fun n -> n <> net.server && n <> net.client
                      && off_route (Topology.mark_node_failed topo n))
            (nodes topo)
        in
        Session.Fail_node { node = pick off }) ]
  in
  let topo = ref spec.topo in
  let deltas =
    List.map
      (fun kind ->
        let d = kind !topo in
        topo := apply !topo d;
        d)
      kinds
  in
  { spec; deltas = Array.of_list deltas }

(* One pass over the sessions, stopping early at [until]; [per] slots
   per session. *)
let churn_pass t ~per ~metrics ~until scripts =
  let session_plan s = planned ~cold:(not (Session.is_warm s)) (fun () -> Session.plan s) in
  Array.iteri
    (fun k sc ->
      let label = Printf.sprintf "session %d" k in
      let session = ref None in
      let opened =
        Timer.now_s () < until
        && measure t (k * per) ~label ~check:(agrees sc.spec.expect) (fun () ->
               match check sc.spec.text with
               | Error v -> v
               | Ok req ->
                   let s = Session.create ~metrics req in
                   session := Some (s, req);
                   session_plan s)
      in
      match !session with
      | Some (s, req) when opened ->
          let live = ref true in
          Array.iteri
            (fun j delta ->
              let step = j + 1 in
              let check v =
                let cold = Planner.plan { req with Planner.topo = Session.topology s } in
                agrees v (verdict_of_report cold)
              in
              if !live && Timer.now_s () < until then
                live :=
                  measure t ((k * per) + step) ~label:(Printf.sprintf "%s delta %d" label step)
                    ~check (fun () ->
                      ignore (span Update (fun () -> Session.update s delta) : Session.t);
                      session_plan s))
            sc.deltas
      | _ -> ())
    scripts

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* A churn workload opens one session per corpus spec. *)
type workload = { churn : bool; specs : int; make : Prng.t -> int -> instance }

(* Instances are small (14 nodes) so that a request takes 1-20 ms, and
   corpora are sized so that a 40-second run makes about 50 or more
   passes: short requests with small working sets in many passes are
   what keeps the best-of-passes figures steady on a host whose speed
   drifts.  A 57-node infeasible corpus swung by a third between runs
   when the host slowed. *)
let workloads =
  let small = { transit = 2; stubs = 2; stub_size = 3 } in
  let cold specs make = { churn = false; specs; make } in
  [ ("cold-fine", cold 32 (feasible small Media.D));
    ("session-churn", { churn = true; specs = 12; make = feasible small Media.C });
    ("infeasible", cold 100 (infeasible small)) ]

(* Set-up builds the run's spec corpus from the seed: generate each
   network, render it to DSL text and parse the text back.  Churn's
   delta scripts are derived afterwards, off the clock: picking
   off-route deltas is the benchmark's own work, not the program's. *)
let corpus w ~seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  Array.init w.specs (fun i -> w.make (Prng.split rng) i)

(* The slots and a function running one pass over them. *)
let prepare w specs ~seed =
  if not w.churn then
    let t = slots (Array.length specs) in
    (t, fun ~metrics ~until -> cold_pass t ~metrics ~until specs)
  else begin
    let rng = Prng.create ~seed:(Int64.of_int (seed lxor 0x5eed)) in
    let scripts = Array.map (fun spec -> script (Prng.split rng) spec) specs in
    let per = 1 + Array.length scripts.(0).deltas in
    let t = slots (Array.length scripts * per) in
    (t, fun ~metrics ~until -> churn_pass t ~per ~metrics ~until scripts)
  end

(* Set-up is timed like a request: as the best of repetitions, each
   building the same corpus.  A repetition runs between passes once
   every [setup_every_s], so the repetitions sample the same stretch of
   the host's drifting speed as the requests do; a burst of them before
   the run would sample only its first second. *)
let setup_every_s = 0.5

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: cold-fine session-churn infeasible";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.assoc_opt !workload workloads with Some w -> w | None -> usage ()
  in
  install_certifier ();
  let build_corpus () = Timer.time (fun () -> corpus w ~seed:!seed) in
  let specs, first_ms = build_corpus () in
  let setup_ms = ref first_ms in
  let t, pass = prepare w specs ~seed:!seed in
  let metrics = Registry.create () in
  tracing := !trace = 1;
  Gc.compact ();
  let until = Timer.now_s () +. !seconds in
  let next_setup = ref (Timer.now_s () +. setup_every_s) in
  while Timer.now_s () < until do
    pass ~metrics ~until;
    if Timer.now_s () >= !next_setup then begin
      let _, ms = build_corpus () in
      setup_ms := Float.min !setup_ms ms;
      next_setup := Timer.now_s () +. setup_every_s
    end
  done;
  let setup_s = !setup_ms /. 1000. in
  let best = List.filter Float.is_finite (Array.to_list t.best_ms) in
  let per_request x = x /. float_of_int (Stdlib.max 1 t.attempted) in
  let metrics_out =
    if !trace = 0 then
      [ ("verdict_ms_p50", median best, "ms");
        ("verdicts_per_s",
         float_of_int (List.length best) /. (List.fold_left ( +. ) 0. best /. 1000.), "1/s");
        ("setup_s", setup_s, "s") ]
    else begin
      let snap = Registry.snapshot metrics in
      let count name = per_request (float_of_int (Registry.counter_value snap name)) in
      let hist_ms name =
        match Registry.histogram_value snap name with
        | Some h -> per_request (Histogram.sum h)
        | None -> 0.
      in
      let queries = Registry.counter_value snap "slrg.queries" in
      List.map
        (fun (layer, name) ->
          (name, per_request (Option.value ~default:0. (Hashtbl.find_opt busy_ms layer)), "ms"))
        layers
      @ [ ("plrg_ms", hist_ms "phase.plrg_ms", "ms");
          ("slrg_ms", hist_ms "phase.slrg_ms", "ms");
          ("rg_ms", hist_ms "phase.rg_ms", "ms");
          ("rg_created", count "rg.created", "count");
          ("rg_expanded", count "rg.expanded", "count");
          ("rg_duplicates", count "rg.duplicates", "count");
          ("slrg_queries", count "slrg.queries", "count");
          ("slrg_hit_ratio",
           (let hits = Registry.counter_value snap "slrg.cache_hits" in
            if hits + queries = 0 then 0.
            else float_of_int hits /. float_of_int (hits + queries)),
           "ratio");
          ("invalidated_actions", count "session.invalidated_actions", "count");
          ("evicted_entries", count "session.evicted_entries", "count") ]
    end
  in
  Printf.eprintf "bench: %s seed %d: %d of %d slots timed, %d requests, %d failed\n"
    !workload !seed (List.length best) (Array.length t.best_ms) t.attempted t.failed;
  Option.iter (fun e -> prerr_endline ("bench: first failure: " ^ e)) t.first_error;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (t.failed = 0) t.attempted t.failed
    (String.concat ", " (List.map json_metric metrics_out))

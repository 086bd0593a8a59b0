open Dsim

type config = {
  areas : int;
  nodes_per_area : int;
  initial_energy : int;
  duty_ticks : int;
  rest_ticks : int;
}

let default_config =
  { areas = 3; nodes_per_area = 3; initial_energy = 600; duty_ticks = 20; rest_ticks = 5 }

type scheduler = Dining | All_on

type t = {
  engine : Engine.t;
  config : config;
  scheduler : scheduler;
  instance : string;
  node_count : int;
  energy : int array;
}

let area_of t pid = pid / t.config.nodes_per_area

let nodes_of_area t a =
  List.init t.config.nodes_per_area (fun i -> (a * t.config.nodes_per_area) + i)

(* Conflict graph: one clique per area (same-area nodes cover the same
   ground, so their duty sessions conflict). *)
let coverage_graph config =
  let n = config.areas * config.nodes_per_area in
  let edges = ref [] in
  for a = 0 to config.areas - 1 do
    let base = a * config.nodes_per_area in
    for i = 0 to config.nodes_per_area - 1 do
      for j = i + 1 to config.nodes_per_area - 1 do
        edges := (base + i, base + j) :: !edges
      done
    done
  done;
  Graphs.Conflict_graph.of_edges ~n !edges

let setup ~engine ?(config = default_config) ~scheduler () =
  let node_count = config.areas * config.nodes_per_area in
  if Engine.n engine <> node_count then
    invalid_arg "Wsn.Model.setup: engine size must be areas * nodes_per_area";
  let instance = "wsn" in
  let t =
    {
      engine;
      config;
      scheduler;
      instance;
      node_count;
      energy = Array.make node_count config.initial_energy;
    }
  in
  let handles = Array.make node_count None in
  (match scheduler with
  | Dining ->
      let graph = coverage_graph config in
      for pid = 0 to node_count - 1 do
        let ctx = Engine.ctx engine pid in
        let peers = nodes_of_area t (area_of t pid) in
        let fd, oracle = Detectors.Heartbeat.component ctx ~peers () in
        Engine.register engine pid fd;
        let comp, handle, _ =
          Dining.Wf_ewx.component ctx ~instance ~graph
            ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
            ()
        in
        Engine.register engine pid comp;
        handles.(pid) <- Some handle;
        Engine.register engine pid
          (Dining.Clients.greedy ctx ~handle ~eat_ticks:config.duty_ticks
             ~think_ticks:config.rest_ticks ())
      done
  | All_on ->
      for pid = 0 to node_count - 1 do
        let ctx = Engine.ctx engine pid in
        let cell, handle = Dining.Spec.Cell.handle (Dining.Spec.Cell.create ctx ~instance) in
        handles.(pid) <- Some handle;
        let turn_on =
          Component.action "wsn-always-on"
            ~guard:(fun () ->
              Types.phase_equal (handle.Dining.Spec.phase ()) Types.Thinking)
            ~body:(fun () ->
              Dining.Spec.Cell.set cell Types.Hungry;
              Dining.Spec.Cell.set cell Types.Eating)
        in
        Engine.register engine pid (Component.make ~name:instance ~actions:[ turn_on ] ())
      done);
  (* Energy drain: one unit per on-duty tick; empty battery = crash. *)
  Engine.on_tick engine (fun () ->
      for pid = 0 to node_count - 1 do
        if Engine.is_live engine pid then
          match handles.(pid) with
          | Some h when Types.phase_equal (h.Dining.Spec.phase ()) Types.Eating ->
              t.energy.(pid) <- t.energy.(pid) - 1;
              if t.energy.(pid) <= 0 then Engine.crash_now engine pid
          | Some _ | None -> ()
      done);
  t

type sample = {
  at : Types.time;
  covered : int;
  redundant : int;
  alive : int;
}

let coverage_series t ~sample_every ~horizon =
  let trace = Engine.trace t.engine in
  let r = Dining.Monitor.finish (Trace.Phases.of_trace trace ~instance:t.instance) ~horizon in
  (* Samples ascend, so each node's sorted duty intervals are walked once. *)
  let duty =
    Array.init t.node_count (fun pid ->
        Array.of_list (Dining.Monitor.Run.live_eating_intervals r ~pid))
  in
  let next = Array.make t.node_count 0 in
  let on_duty pid at =
    let iv = duty.(pid) in
    while next.(pid) < Array.length iv && snd iv.(next.(pid)) <= at do
      next.(pid) <- next.(pid) + 1
    done;
    next.(pid) < Array.length iv && fst iv.(next.(pid)) <= at
  in
  let alive_at pid at =
    match Dining.Monitor.Run.crash_time r pid with None -> true | Some tc -> at < tc
  in
  let samples = ref [] in
  let at = ref sample_every in
  while !at <= horizon do
    let covered = ref 0 and redundant = ref 0 in
    for a = 0 to t.config.areas - 1 do
      let on = List.length (List.filter (fun pid -> on_duty pid !at) (nodes_of_area t a)) in
      if on >= 1 then incr covered;
      if on >= 2 then incr redundant
    done;
    let alive =
      List.length (List.filter (fun pid -> alive_at pid !at) (List.init t.node_count Fun.id))
    in
    samples := { at = !at; covered = !covered; redundant = !redundant; alive } :: !samples;
    at := !at + sample_every
  done;
  List.rev !samples

let lifetime t =
  let crash_times = Trace.crash_times (Engine.trace t.engine) in
  let area_death a =
    let deaths =
      List.map (fun pid -> Types.Pidmap.find_opt pid crash_times) (nodes_of_area t a)
    in
    if List.for_all Option.is_some deaths then
      Some (List.fold_left (fun acc d -> max acc (Option.get d)) 0 deaths)
    else None
  in
  List.init t.config.areas Fun.id
  |> List.filter_map area_death
  |> function
  | [] -> None
  | l -> Some (List.fold_left min max_int l)

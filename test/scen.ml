(* Shared scenario builders for the test suites. *)

open Dsim

type dining_run = {
  engine : Engine.t;
  graph : Graphs.Conflict_graph.t;
  instance : string;
  handles : Dining.Spec.handle array;
  debugs : Dining.Wf_ewx.debug array;
  oracles : Detectors.Oracle.t array;
}

let wf_dining ?(seed = 1L) ?(adversary = Adversary.partial_sync ()) ?(instance = "dx")
    ?(greedy = true) ?(eat_ticks = 3) ?(think_ticks = 2) ?(suspicion_override = true)
    ~graph () =
  let n = Graphs.Conflict_graph.n graph in
  let engine = Engine.create ~seed ~n ~adversary () in
  let per_pid =
    List.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let fd_comp, oracle =
          Detectors.Heartbeat.component ctx ~peers:(List.init n Fun.id) ()
        in
        Engine.register engine pid fd_comp;
        let din_comp, handle, debug =
          Dining.Wf_ewx.component ctx ~instance ~graph
            ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
            ~config:{ Dining.Wf_ewx.suspicion_override }
            ()
        in
        Engine.register engine pid din_comp;
        if greedy then
          Engine.register engine pid
            (Dining.Clients.greedy ctx ~handle ~eat_ticks ~think_ticks ());
        (handle, debug, oracle))
  in
  {
    engine;
    graph;
    instance;
    handles = Array.of_list (List.map (fun (h, _, _) -> h) per_pid);
    debugs = Array.of_list (List.map (fun (_, d, _) -> d) per_pid);
    oracles = Array.of_list (List.map (fun (_, _, o) -> o) per_pid);
  }

(* The registry's wf (instance "dx", 3-tick meals) run through the shared
   pipeline to [horizon]; returns the recorded trace. *)
let registry_wf_trace ?(adversary = Adversary.partial_sync ()) ?(crashes = []) ~seed ~graph
    horizon =
  let ran =
    Check.Runner.exec ~registry:Check.Runner.default_registry
      { Check.Runner.algo = "wf"; graph; adversary; crashes; eat_ticks = 3; horizon; seed;
        instance = "dx" }
  in
  Engine.trace ran.Check.Runner.engine

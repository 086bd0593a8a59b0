open Dsim

type builder = Core.Scenario.builder
type registry = Core.Scenario.registry

type spec = {
  algo : string;
  graph : Graphs.Conflict_graph.t;
  adversary : Adversary.t;
  crashes : (Types.pid * Types.time) list;
  eat_ticks : int;
  horizon : int;
  seed : int64;
  instance : string;
}

type executed = {
  engine : Engine.t;
  run : Dining.Monitor.run;
  instrument : Obs.Instrument.t option;
}

let exec ?metrics ?(observers = []) ~registry s =
  let fail msg = failwith ("Runner.exec: " ^ msg) in
  let builder = Result.fold ~ok:Fun.id ~error:fail (Core.Scenario.find registry s.algo) in
  let n = Graphs.Conflict_graph.n s.graph in
  Result.iter_error invalid_arg (Core.Cmdline.check_crashes ~n s.crashes);
  let engine = Engine.create ~seed:s.seed ~n ~adversary:s.adversary () in
  (* Instrumentation and observers subscribe before any component
     registers, so they see the whole run. *)
  let instrument = Option.map (fun metrics -> Obs.Instrument.install ~metrics engine) metrics in
  List.iter (Trace.subscribe (Engine.trace engine)) observers;
  builder engine ~graph:s.graph ~instance:s.instance ~eat_ticks:s.eat_ticks;
  List.iter (fun (pid, at) -> Engine.schedule_crash engine pid ~at) s.crashes;
  Engine.run engine ~until:s.horizon;
  Option.iter Obs.Instrument.finalize instrument;
  let phases = Trace.Phases.of_trace (Engine.trace engine) ~instance:s.instance in
  { engine; run = Dining.Monitor.finish phases ~horizon:s.horizon; instrument }

type control =
  | Record of Adversary.tape
  | Replay of int * (int * Adversary.decision) list
  | Drive of (Adversary.query -> Adversary.decision)

type outcome = {
  checks : Obs.Report.check list;
  failed : string list;
  meals : int;
  trace_events : int;
  coverage : Obs.Coverage.t;
}

let instance = "fz"

let default_registry = Core.Scenario.default_registry

let run_traced ?control ?metrics ~registry (c : Config.t) =
  let base = Config.to_adversary c in
  let adversary =
    match control with
    | None -> base
    | Some (Record tape) -> Adversary.record tape base
    | Some (Replay (len, overrides)) -> Adversary.replay ~len ~overrides base
    | Some (Drive controller) -> Adversary.drive controller base
  in
  let graph = Config.graph c in
  let { Config.algo; crashes; eat_ticks; horizon; seed; _ } = c in
  let cov = Obs.Coverage.create () in
  let { engine; run = r; _ } =
    exec ?metrics ~observers:[ Obs.Coverage.observe cov ] ~registry
      { algo; graph; adversary; crashes; eat_ticks; horizon; seed; instance }
  in
  let n = Graphs.Conflict_graph.n graph in
  let checks =
    [
      Obs.Report.of_verdict "wait_freedom"
        (Dining.Monitor.Run.wait_freedom r ~n ~slack:(horizon / 3));
      Obs.Report.of_verdict "eventual_weak_exclusion"
        (Dining.Monitor.Run.eventual_weak_exclusion r ~graph ~suffix_from:(horizon / 2));
      Obs.Report.of_verdict "exiting_finite"
        (Dining.Monitor.Run.exiting_finite r ~n ~slack:(horizon / 3));
    ]
  in
  let failed =
    List.filter_map
      (fun (ch : Obs.Report.check) -> if ch.Obs.Report.holds then None else Some ch.Obs.Report.name)
      checks
  in
  let meals =
    List.init n (fun pid -> Dining.Monitor.Run.eat_count r ~pid) |> List.fold_left ( + ) 0
  in
  let trace = Engine.trace engine in
  let coverage = Obs.Coverage.snapshot cov in
  ({ checks; failed; meals; trace_events = Trace.length trace; coverage }, trace)

let run ?control ?metrics ~registry c = fst (run_traced ?control ?metrics ~registry c)

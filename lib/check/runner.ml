open Dsim

type builder = Core.Scenario.builder
type registry = Core.Scenario.registry

type outcome = {
  checks : Obs.Report.check list;
  failed : string list;
  meals : int;
  trace_events : int;
  coverage : Obs.Coverage.t;
}

let instance = "fz"

let default_registry = Core.Scenario.default_registry

let run_traced ?record ?replay ?drive ?metrics ~registry (c : Config.t) =
  (match (record, replay, drive) with
  | Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _ ->
      invalid_arg "Runner.run: record, replay and drive are mutually exclusive"
  | _ -> ());
  let builder =
    match List.assoc_opt c.Config.algo registry with
    | Some b -> b
    | None -> failwith (Printf.sprintf "Runner.run: unknown algorithm %S" c.Config.algo)
  in
  let graph = Config.graph c in
  let n = Graphs.Conflict_graph.n graph in
  let base = Config.to_adversary c in
  let adversary =
    match (record, replay, drive) with
    | Some tape, None, None -> Adversary.record tape base
    | None, Some (len, overrides), None -> Adversary.replay ~len ~overrides base
    | None, None, Some controller -> Adversary.drive controller base
    | None, None, None -> base
    | _ -> assert false
  in
  let engine = Engine.create ~seed:c.Config.seed ~n ~adversary () in
  (* Instrumentation must be installed before components register so its
     on_tick hook and trace subscriber see the whole run. *)
  let inst = Option.map (fun metrics -> Obs.Instrument.install ~metrics engine) metrics in
  (* The coverage collector likewise subscribes before any component can
     log, so the signature spans the whole event stream. *)
  let cov = Obs.Coverage.create () in
  Obs.Coverage.attach cov (Engine.trace engine);
  builder engine ~graph ~instance ~eat_ticks:c.Config.eat_ticks;
  List.iter
    (fun (pid, at) -> if pid >= 0 && pid < n then Engine.schedule_crash engine pid ~at)
    c.Config.crashes;
  Engine.run engine ~until:c.Config.horizon;
  Option.iter Obs.Instrument.finalize inst;
  let trace = Engine.trace engine in
  let horizon = c.Config.horizon in
  let r = Dining.Monitor.finish (Trace.Phases.of_trace trace ~instance) ~horizon in
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
  ( {
      checks;
      failed;
      meals;
      trace_events = Trace.length trace;
      coverage = Obs.Coverage.snapshot cov;
    },
    trace )

let run ?record ?replay ?drive ?metrics ~registry c =
  fst (run_traced ?record ?replay ?drive ?metrics ~registry c)

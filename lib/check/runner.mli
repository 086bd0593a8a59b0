(** The one run pipeline for registry dining deployments ({!exec}, behind
    [dinersim dining], [stress/sweep.exe] and the bench), and the campaign
    runner on top of it ({!run}): one config, checked for wait-freedom
    (slack horizon/3), eventual weak exclusion (suffix from horizon/2) and
    finite exiting. *)

open Dsim

type builder = Core.Scenario.builder
(** Deploy one dining algorithm (plus clients and any detectors it needs)
    on every process of the engine. *)

type registry = Core.Scenario.registry
(** Algorithms by config name. Tests extend this with broken variants. *)

(** One registry dining run, from built values. *)
type spec = {
  algo : string;  (** Registry name. *)
  graph : Graphs.Conflict_graph.t;
  adversary : Adversary.t;
  crashes : (Types.pid * Types.time) list;
  eat_ticks : int;  (** Meal length of the greedy clients. *)
  horizon : int;
  seed : int64;
  instance : string;  (** Dining-instance tag of the deployment. *)
}

type executed = {
  engine : Engine.t;
  run : Dining.Monitor.run;  (** The trace folded for [instance]. *)
  instrument : Obs.Instrument.t option;  (** [Some] iff [metrics] was given. *)
}

val exec :
  ?metrics:Obs.Metrics.t -> ?observers:(Trace.entry -> unit) list -> registry:registry -> spec ->
  executed
(** Create the engine; install {!Obs.Instrument} into [metrics] if given;
    subscribe [observers] to the trace; deploy [algo]; schedule the
    crashes; run to [horizon]; finalize; fold the trace. Raises [Failure]
    on an algorithm missing from the registry and [Invalid_argument] on a
    bad crash (see {!Core.Cmdline.check_crashes}), both before the engine
    is created. *)

(** How {!run} wraps the config's adversary: see {!Adversary.record},
    {!Adversary.replay} and {!Adversary.drive} (the model checker's hook). *)
type control =
  | Record of Adversary.tape
  | Replay of int * (int * Adversary.decision) list
  | Drive of (Adversary.query -> Adversary.decision)

type outcome = {
  checks : Obs.Report.check list;  (** Verdicts, fixed order. *)
  failed : string list;  (** Names of the checks that do not hold. *)
  meals : int;  (** Total completed+ongoing eating sessions (diagnostics). *)
  trace_events : int;
  coverage : Obs.Coverage.t;
      (** Schedule-coverage signature of the run's event stream —
          deterministic in the config, so replay reproduces it exactly. *)
}

val instance : string
(** The dining-instance tag used by every fuzz run (["fz"]). *)

val default_registry : registry
(** {!Core.Scenario.default_registry}: wf, kfair, fl1, hygienic, ftme. *)

val run : ?control:control -> ?metrics:Obs.Metrics.t -> registry:registry -> Config.t -> outcome
(** {!exec} the config under {!instance}. Campaign drivers give each run
    its own [metrics] and merge them in run-index order. *)

val run_traced :
  ?control:control -> ?metrics:Obs.Metrics.t -> registry:registry -> Config.t ->
  outcome * Trace.t
(** Like {!run} but also returns the full recorded trace — the input of
    {!Obs.Span.chrome_of_trace} and offline property checkers
    ([dinersim trace] renders repro artifacts through this). *)

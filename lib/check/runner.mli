(** Execute one campaign config and collect its property verdicts.

    A runner builds the engine from the config (seed, adversary, optionally
    wrapped for decision recording or replay), deploys the named dining
    algorithm with greedy clients on every process, applies the crash
    schedule, runs to the horizon, and checks the Section 4 dining
    properties over the trace: wait-freedom (slack horizon/3), eventual
    weak exclusion (suffix from horizon/2), and finite exiting. *)

open Dsim

type builder = Core.Scenario.builder
(** Deploy one dining algorithm (plus clients and any detectors it needs)
    on every process of the engine. *)

type registry = Core.Scenario.registry
(** Algorithms by config name. Tests extend this with broken variants. *)

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

val run :
  ?record:Adversary.tape ->
  ?replay:int * (int * Adversary.decision) list ->
  ?drive:(Adversary.query -> Adversary.decision) ->
  ?metrics:Obs.Metrics.t ->
  registry:registry ->
  Config.t ->
  outcome
(** Execute the config. [record] wraps the adversary so its decision
    sequence is captured; [replay] drives the first [len] adversary queries
    from the given positional overrides (see {!Adversary.replay}); [drive]
    hands every adversary query to a controller callback (see
    {!Adversary.drive}) — the bounded exhaustive explorer's hook. The
    three are mutually exclusive. [metrics] installs the standard
    {!Obs.Instrument} engine instrumentation into the given registry
    (finalized before returning) — campaign drivers give each run its own
    registry and merge them in run-index order. Raises [Failure] on an
    algorithm name missing from the registry. *)

val run_traced :
  ?record:Adversary.tape ->
  ?replay:int * (int * Adversary.decision) list ->
  ?drive:(Adversary.query -> Adversary.decision) ->
  ?metrics:Obs.Metrics.t ->
  registry:registry ->
  Config.t ->
  outcome * Trace.t
(** Like {!run} but also returns the full recorded trace — the input of
    {!Obs.Span.chrome_of_trace} and offline property checkers
    ([dinersim trace] renders repro artifacts through this). *)

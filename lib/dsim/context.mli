(** Capabilities handed by the engine to a protocol component at one process.

    [send], [now], [rng] and [log] are the legitimate process-local
    capabilities. [is_live] is an omniscient probe into the global fault
    pattern: real protocols must never call it — it exists only for oracle
    implementations (the perfect and trusting detectors, which *model*
    failure detectors that are not implementable in pure asynchrony) and for
    white-box monitors.

    [rng] is the process's own stream, which the engine also draws the
    process's step offers, message delays and inbox shuffles from; a
    component's draws therefore shift the adversary's later draws for this
    process only, never for another. *)

type t = {
  self : Types.pid;
  send : dst:Types.pid -> tag:string -> Msg.t -> unit;
  now : unit -> Types.time;
  rng : Prng.t;
  log : Trace.event -> unit;
  is_live : Types.pid -> bool;
}

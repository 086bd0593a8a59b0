(** Discrete-event simulation engine.

    Implements the system model of Section 4 of the paper:

    - a finite set of processes [0 .. n-1] executing atomic steps: in each
      step a process receives the messages pending at its start, in a
      shuffled order, and executes at most one enabled guarded action
      (interleaving semantics, with a rotating cursor providing weak
      fairness across a process's actions);
    - reliable non-FIFO channels: every message sent to a correct process is
      eventually delivered exactly once, uncorrupted; delivery delays are
      chosen by the {!Adversary}; messages to crashed processes vanish;
    - crash faults: a crashed process ceases execution permanently;
    - a discrete global clock (the tick counter), inaccessible to protocols
      except through their local [now] capability, which models local
      step-counting rather than global time.

    All nondeterminism derives from the seed, so runs are exactly
    reproducible. Each process [p] owns the stream [Prng.derive seed
    ~index:p]: its step offers, the delays of the messages it sends, the
    shuffle of its drained inbox and its components' [Context.rng] all
    draw there, and nothing else does. Within a tick processes step in pid
    order; since no draw is shared and every delay is at least one tick,
    any other order yields the same per-process behaviour. *)

type t

val create :
  ?seed:int64 ->
  ?retain_trace:bool ->
  ?delivery:[ `Wheel | `Reference ] ->
  ?permute:int64 ->
  n:int ->
  adversary:Adversary.t ->
  unit ->
  t
(** [retain_trace] (default [true]) is forwarded to {!Trace.create}: pass
    [false] for very long runs that stream the trace to an [Obs.Sink]
    instead of holding it in memory.

    [delivery] selects the in-flight representation: [`Wheel] (default), an
    O(1) bucketed timing wheel keyed on delivery tick with an overflow map
    beyond the horizon, or [`Reference], the previous tree-map of buckets.
    The two are observationally identical (same traces, same PRNG draws,
    same delivery order — property-tested in [test/test_scale.ml]);
    [`Reference] exists only as the oracle for that differential test.

    [permute], when given, steps the processes of each tick in an order
    shuffled from a stream seeded by it, instead of pid order. Per-process
    event sequences and message counts must not change (property-tested in
    [test/test_dsim.ml]); like [`Reference], it exists only as the oracle
    for that test. *)

val n : t -> int
val now : t -> Types.time
val trace : t -> Trace.t

val ctx : t -> Types.pid -> Context.t
(** Capability bundle for building components at process [pid]. *)

val register : t -> Types.pid -> Component.t -> unit
(** Add a component (protocol layer / logical thread) to a process. Raises
    [Invalid_argument] on duplicate component names at the same process. *)

val schedule_crash : t -> Types.pid -> at:Types.time -> unit
(** The process ceases taking steps at the first tick >= [at]. *)

val crash_now : t -> Types.pid -> unit

val is_live : t -> Types.pid -> bool
val crashed : t -> Types.Pidset.t
val live_set : t -> Types.Pidset.t

val live_count : t -> int
(** Number of live processes, maintained incrementally — O(1), unlike
    [Types.Pidset.cardinal (live_set t)] which rebuilds a set per call.
    Per-tick instrumentation should use this. *)

val in_flight : t -> tag:string -> int
(** Number of undelivered messages addressed to components named [tag]
    (including those already ripe but not yet consumed). Used by white-box
    monitors such as the Lemma 3 checker; not available to protocols. O(1):
    backed by per-tag counters maintained at send, crash-time discard and
    inbox drain. *)

val in_flight_scan : t -> tag:string -> int
(** Same quantity as {!in_flight}, recomputed by walking every in-flight
    bucket and every inbox — O(total undelivered traffic). Kept as the
    debug cross-check for the incremental counters (see
    [test/test_scale.ml]); monitors should call {!in_flight}. *)

val in_flight_filtered : t -> tag:string -> f:(Msg.t -> bool) -> int
(** Like {!in_flight} but counting only payloads satisfying [f]. This one
    is a scan — the filter is an arbitrary predicate, so no counter can be
    maintained for it. Its only client (the Lemma 3 monitor) runs on
    2-process reduction pairs where traffic is tiny. *)

val in_flight_total : t -> int
(** All undelivered packets, any tag (excludes inbox-pending ones). *)

val sent_total : t -> int
(** Total messages sent so far (accounting, used by benches). *)

val sent_with_tag : t -> tag:string -> int

val sent_by_tag : t -> (string * int) list
(** All (tag, sent count) pairs, sorted by tag — a deterministic snapshot
    for metrics export. *)

val on_tick : t -> (unit -> unit) -> unit
(** Register a hook executed at the end of every tick (after all process
    steps); used by online invariant monitors. *)

val step : t -> unit
(** Advance the clock by one tick. *)

val run : t -> until:Types.time -> unit
(** Run until [now >= until]. *)

val run_while : t -> max:Types.time -> (unit -> bool) -> unit
(** Step while the predicate holds and [now < max]. *)

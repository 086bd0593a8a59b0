(** Trace checkers for the dining safety/liveness properties of Section 4.

    - {e Eventual weak exclusion} (◇WX): there is a time after which no two
      live neighbors eat simultaneously; finitely many earlier mistakes are
      allowed.
    - {e Perpetual weak exclusion} (WX): live neighbors never eat
      simultaneously.
    - {e Wait-freedom}: if correct diners eat for finite time, every correct
      hungry diner eventually eats, no matter how many processes crash.
    - {e Eventual k-fairness} ([13]): there is a time after which no diner
      enters its critical section more than [k] consecutive times while a
      correct neighbor stays hungry.

    On a finite trace the eventual properties are checked against an
    explicit suffix start (or reported as a measured convergence time).

    Everything is computed by one pass over the trace: a
    {!Dsim.Trace.Phases} observes each entry once (post hoc over a recorded
    trace, or live as a {!Dsim.Trace.subscribe} observer), and {!finish}
    turns it into a {!run} from which every verdict and statistic in {!Run}
    is read in time linear in the trace plus the overlaps found. The
    functions at the end take a recorded trace and run the pass for one
    answer. *)

type violation = {
  at : Dsim.Types.time;  (** Start of an overlap of two live neighbors' eating. *)
  until : Dsim.Types.time;  (** Its (exclusive) end. *)
  p : Dsim.Types.pid;
  q : Dsim.Types.pid;
}

(** {1 The checking pass} *)

type run

val finish : Dsim.Trace.Phases.t -> horizon:Dsim.Types.time -> run
(** Close the run at [horizon]: sessions still open there end at it. *)

val counts_in : int array -> (int * int) list -> int list
(** [counts_in times windows]: for sorted [times] and windows [[lo, hi)]
    whose bounds never decrease, how many times fall in each window, in
    one forward pass. *)

module Run : sig
  val crash_time : run -> Dsim.Types.pid -> Dsim.Types.time option
  (** First crash of the process. *)

  val timeline :
    run -> pid:Dsim.Types.pid -> (Dsim.Types.time * Dsim.Types.time * Dsim.Types.phase) list
  (** As {!Dsim.Trace.phase_timeline}. *)

  val eat_count : run -> pid:Dsim.Types.pid -> int

  val eating_starts : run -> pid:Dsim.Types.pid -> Dsim.Types.time array
  (** Times the diner entered [Eating], in order (zero-length meals included). *)

  val live_eating_intervals :
    run -> pid:Dsim.Types.pid -> (Dsim.Types.time * Dsim.Types.time) list
  (** Eating intervals clipped at the diner's crash time (a crashed process
      is no longer live, so post-crash "eating" cannot violate ◇WX). *)

  val exclusion_violations : run -> graph:Graphs.Conflict_graph.t -> violation list
  (** One record per overlap of two neighbors' live-eating intervals,
      ordered by (start, p, q). *)

  val last_violation_time : run -> graph:Graphs.Conflict_graph.t -> Dsim.Types.time option

  val eventual_weak_exclusion :
    run -> graph:Graphs.Conflict_graph.t -> suffix_from:Dsim.Types.time ->
    Detectors.Properties.verdict
  (** No violation at or after [suffix_from]: an overlap that began earlier
      but lasts past [suffix_from] fails too. *)

  val perpetual_weak_exclusion :
    run -> graph:Graphs.Conflict_graph.t -> Detectors.Properties.verdict

  val wait_freedom : run -> n:int -> slack:Dsim.Types.time -> Detectors.Properties.verdict
  (** Every hungry phase of a correct diner beginning before
      [horizon - slack] transitions to eating. [slack] absorbs requests that
      are legitimately still in progress at the end of the run. *)

  val exiting_finite : run -> n:int -> slack:Dsim.Types.time -> Detectors.Properties.verdict
  (** The spec requires relinquishment to complete in finite time: no
      correct diner may sit in [Exiting] from before [horizon - slack] to
      the end. *)

  val max_overtaking : run -> graph:Graphs.Conflict_graph.t -> after:Dsim.Types.time -> int
  (** Maximum, over diners [p] (correct) and neighbors [q], of the number of
      eating sessions [q] begins during one hungry wait of [p] that starts
      at or after [after]. Eventual k-fairness holds iff this is <= k for a
      suitable suffix. *)

  val starved : run -> n:int -> slack:Dsim.Types.time -> Dsim.Types.pid list
  (** Correct diners left hungry at the horizon whose wait began before
      [horizon - slack]. *)

  val failure_locality :
    run -> graph:Graphs.Conflict_graph.t -> slack:Dsim.Types.time -> int option
  (** The crash-locality actually exhibited by the run: the maximum, over
      starved correct diners, of the distance to the nearest crashed
      process ([Some 0] when nothing starves, [None] when a diner starves
      with no crash to blame — i.e. the algorithm starves on its own).
      Wait-free algorithms exhibit locality 0; the FL-1 algorithms of [11]
      bound it by 1; plain fork-based dining lets a crash starve whole
      chains. *)

  val fairness_index : run -> pids:Dsim.Types.pid list -> float
  (** Jain's fairness index over the meal counts of the given diners:
      [(sum x)^2 / (n * sum x^2)], 1.0 = perfectly even, 1/n = one diner
      took everything. *)

  val hungry_wait_times : run -> pid:Dsim.Types.pid -> int list
  (** Durations of the completed hungry -> eating waits of one diner. *)
end

(** {1 Views over a recorded trace}

    Each is the {!Run} function of the same name on
    [finish (Dsim.Trace.Phases.of_trace trace ~instance) ~horizon]: the whole pass for one
    answer. Read several answers from one {!run} instead. *)

val live_eating_intervals :
  Dsim.Trace.t -> instance:string -> pid:Dsim.Types.pid -> horizon:Dsim.Types.time ->
  (Dsim.Types.time * Dsim.Types.time) list

val exclusion_violations :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> violation list

val last_violation_time :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> Dsim.Types.time option

val eventual_weak_exclusion :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> suffix_from:Dsim.Types.time -> Detectors.Properties.verdict

val perpetual_weak_exclusion :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> Detectors.Properties.verdict

val wait_freedom :
  Dsim.Trace.t -> instance:string -> n:int -> horizon:Dsim.Types.time ->
  slack:Dsim.Types.time -> Detectors.Properties.verdict

val exiting_finite :
  Dsim.Trace.t -> instance:string -> n:int -> horizon:Dsim.Types.time ->
  slack:Dsim.Types.time -> Detectors.Properties.verdict

val eat_count : Dsim.Trace.t -> instance:string -> pid:Dsim.Types.pid -> int

val max_overtaking :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  after:Dsim.Types.time -> horizon:Dsim.Types.time -> int

val starved :
  Dsim.Trace.t -> instance:string -> n:int -> horizon:Dsim.Types.time ->
  slack:Dsim.Types.time -> Dsim.Types.pid list

val failure_locality :
  Dsim.Trace.t -> instance:string -> graph:Graphs.Conflict_graph.t ->
  horizon:Dsim.Types.time -> slack:Dsim.Types.time -> int option

val fairness_index : Dsim.Trace.t -> instance:string -> pids:Dsim.Types.pid list -> float

val hungry_wait_times :
  Dsim.Trace.t -> instance:string -> pid:Dsim.Types.pid -> horizon:Dsim.Types.time -> int list

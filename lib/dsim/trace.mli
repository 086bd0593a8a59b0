(** Structured run trace.

    Every observable event of a run — dining phase transitions, suspicion
    flips of any failure-detector module, crashes, and protocol-specific
    notes — is appended here with its global-clock timestamp. All property
    checkers (exclusion, wait-freedom, completeness, accuracy, fairness and
    the paper's lemma invariants) are pure functions over a trace. *)

type event =
  | Transition of { instance : string; pid : Types.pid; from_ : Types.phase; to_ : Types.phase }
      (** A diner of dining instance [instance] changed phase. *)
  | Suspect of { detector : string; owner : Types.pid; target : Types.pid }
      (** [owner]'s module of detector [detector] started suspecting [target]. *)
  | Trust of { detector : string; owner : Types.pid; target : Types.pid }
      (** [owner]'s module of detector [detector] stopped suspecting [target]. *)
  | Crash of { pid : Types.pid }
  | Note of { pid : Types.pid; label : string; info : string }
      (** Protocol-specific marker (e.g. ping sent, ack received). *)

type entry = { at : Types.time; ev : event }

type t

val create : ?retain:bool -> unit -> t
(** [retain] (default [true]): whether appended entries are stored in the
    in-memory buffer. With [~retain:false] the trace only fans appends out
    to subscribers — the memory-free streaming mode for very long runs
    (property checkers then run offline over an exported JSONL file). *)

val append : t -> at:Types.time -> event -> unit

val subscribe : t -> (entry -> unit) -> unit
(** Register a streaming observer called synchronously on every append, in
    registration order, before (and regardless of) in-memory retention.
    This is the attachment point for [Obs.Sink] trace sinks. *)

val set_retain : t -> bool -> unit
val retains : t -> bool
val length : t -> int
val entries : t -> entry list
(** All entries in chronological (append) order. *)

val iter : t -> (entry -> unit) -> unit
val filter : t -> (entry -> bool) -> entry list

val crash_times : t -> Types.time Types.Pidmap.t
(** First crash time of each crashed process. *)

(** Per-diner phase history of one dining instance, and each process's
    first crash time, collected in a single pass: entries are fed one at a
    time, either from a recorded trace or live through {!subscribe}. State
    is kept in arrays indexed by pid. *)
module Phases : sig
  type trace := t
  type t

  val create : instance:string -> t
  val instance : t -> string

  val observe : t -> entry -> unit
  (** Record the entry if it is a [Transition] of this instance (one
      string comparison) or a [Crash]; ignore it otherwise. *)

  val of_trace : trace -> instance:string -> t
  (** Observe every entry of a recorded trace. *)

  val crash_time : t -> Types.pid -> Types.time option
  (** First crash of the process. *)

  val iter : t -> pid:Types.pid -> (Types.time -> Types.phase -> unit) -> unit
  (** The diner's transitions in append order, as (time, phase entered). *)

  val fold_timeline :
    t -> pid:Types.pid -> horizon:Types.time
    -> ('a -> Types.time -> Types.time -> Types.phase -> 'a) -> 'a -> 'a
  (** Fold over the segments of {!phase_timeline}, in order. *)
end

val eating_intervals :
  t -> instance:string -> pid:Types.pid -> horizon:Types.time -> (Types.time * Types.time) list
(** Closed eating sessions of a diner as [(start, stop)] pairs; a session
    still open at the end of the run is closed at [horizon]. *)

val phase_timeline :
  t -> instance:string -> pid:Types.pid -> horizon:Types.time
  -> (Types.time * Types.time * Types.phase) list
(** Piecewise-constant phase history [(from, to_exclusive, phase)] covering
    [0, horizon); diners start [Thinking]. Zero-length segments are
    dropped. Both views build a {!Phases} pass over the whole trace. *)

val suspicion_flips :
  t -> detector:string -> owner:Types.pid -> target:Types.pid
  -> (Types.time * bool) list
(** Chronological suspicion history: [(t, true)] = started suspecting at [t];
    [(t, false)] = started trusting. Initial attitude is whatever the
    detector logged first (detectors log their initial state at time 0). *)

val suspected_at :
  t -> detector:string -> owner:Types.pid -> target:Types.pid -> at:Types.time
  -> initially:bool -> bool
(** Attitude of [owner] toward [target] at time [at] given the attitude
    before any logged flip. *)

val notes : ?pid:Types.pid -> ?label:string -> t -> entry list

val pp_entry : Format.formatter -> entry -> unit
val dump : ?limit:int -> Format.formatter -> t -> unit

val to_csv : t -> string
(** The whole trace as CSV with header
    [at,kind,scope,actor,peer,detail] — [scope] is the dining instance or
    detector name, [actor]/[peer] the pids involved, [detail] the phase
    transition, flip direction, or note payload. *)

val write_csv : t -> path:string -> unit

(** Canned experiment scenarios.

    One-call builders for the set-ups used throughout the test-suite,
    benches, examples and the CLI: the dining-algorithm registry, a
    WF-◇WX dining deployment, the contention-manager deployment, the full
    ◇P extraction, the Section 9 T extraction, and the Section 3
    vulnerability scenario. All are deterministic in [seed]. *)

open Dsim

type mistake_windows = (Types.pid * Detectors.Injected.window list) list
(** Per-process adversarial false-suspicion windows injected into the
    {e underlying} dining-layer ◇P modules. *)

val evp_suspects :
  Engine.t -> n:int -> windows:mistake_windows -> Types.pid -> unit -> Types.Pidset.t
(** Deploy one heartbeat ◇P module per process (wrapped with injected
    mistakes where configured) and return the per-process query functions. *)

val trusting_suspects :
  ?detection_delay:int -> Engine.t -> n:int -> Types.pid -> unit -> Types.Pidset.t
(** Deploy one ground-truth trusting oracle (T) per process, suspecting a
    crashed peer [detection_delay] ticks after its crash (default 20), and
    return the per-process query functions. *)

(** {1 The dining registry}

    The one place a dining algorithm is plugged in. An entry here is what
    [dinersim dining --algo], [fuzz --algos], [check --algo], [replay] and
    [stress/sweep.exe] deploy. *)

type builder =
  Engine.t -> graph:Graphs.Conflict_graph.t -> instance:string -> eat_ticks:int -> unit
(** Deploy one dining algorithm (plus greedy clients eating [eat_ticks] and
    any detectors it needs) on every process of the engine. *)

type registry = (string * builder) list
(** Algorithms by name. Tests extend this with broken variants. *)

val with_diners :
  (Context.t -> Types.pid -> Component.t * Dining.Spec.handle) ->
  Engine.t ->
  graph:Graphs.Conflict_graph.t ->
  eat_ticks:int ->
  unit
(** [with_diners make engine ~graph ~eat_ticks] registers, on each process
    of [graph] in pid order, the diner [make ctx pid] returns and then a
    greedy client eating [eat_ticks] per meal. Every builder below is this
    loop plus the detectors its diners query. *)

val default_registry : registry
(** In order: wf (WF-◇WX), kfair, fl1 — each over one heartbeat ◇P module
    per process — then hygienic (no detector) and ftme (over
    {!trusting_suspects}). *)

(** {1 Deployments} *)

(** A WF-◇WX dining deployment: the registry's [wf] on every process. *)
type dining_run = {
  engine : Engine.t;
  graph : Graphs.Conflict_graph.t;
  instance : string;  (** Always ["dx"]. *)
}

val wf_dining :
  ?seed:int64 -> ?adversary:Adversary.t -> graph:Graphs.Conflict_graph.t -> unit -> dining_run
(** The [wf] builder with instance ["dx"] and 3-tick meals. Defaults: seed
    1, [Adversary.partial_sync ()]. *)

(** The contention-manager deployment of Sections 2-3. *)
type ctm_run = {
  engine : Engine.t;
  store : Ctm.Store.stats;  (** The store, on p0. *)
  clients : (Types.pid * Ctm.Client.stats) list;  (** p1..p[clients], in pid order. *)
}

val ctm :
  ?seed:int64 -> ?compute_ticks:int -> clients:int -> with_cm:bool -> unit -> ctm_run
(** A transactional store on p0 and [clients] obstruction-free clients
    (transactions compute for [compute_ticks], the client's default when
    absent). With [with_cm], each client runs its transactions inside a
    WF-◇WX dining session (instance ["cm"], clique over the clients, one
    heartbeat ◇P per client). Partial synchrony, GST 400; seed 7 by
    default. *)

(** A full reduction deployment. *)
type extraction_run = {
  engine : Engine.t;
  extract : Reduction.Extract.t;
  onlines : (Reduction.Pair.t * Reduction.Lemmas.online) list;
}

val wf_extraction :
  ?seed:int64 ->
  ?adversary:Adversary.t ->
  ?windows:mistake_windows ->
  ?with_lemma_monitors:bool ->
  n:int ->
  unit ->
  extraction_run
(** ◇P extraction from the WF-◇WX black box (heartbeat ◇P underneath). *)

val evp_source :
  seed:int64 ->
  n:int ->
  [ `Native | `Extracted ] ->
  Engine.t * (Types.pid -> unit -> Types.Pidset.t)
(** A fresh [n]-process engine (partial synchrony, GST 500) carrying a ◇P
    module per process, for applications that consume ◇P: [`Native] is
    {!evp_suspects}, [`Extracted] is {!wf_extraction}'s extracted oracle
    (no lemma monitors). Returns the engine and the query functions. *)

val ftme_extraction :
  ?seed:int64 ->
  ?adversary:Adversary.t ->
  ?detection_delay:int ->
  n:int ->
  unit ->
  extraction_run
(** T extraction from the perpetual-WX black box (trusting oracle
    underneath) — the Section 9 set-up. *)

val vulnerability :
  ?seed:int64 ->
  ?adversary:Adversary.t ->
  ?mistake_until:Types.time ->
  mode:[ `Flawed_cm | `Our_reduction ] ->
  unit ->
  Engine.t * (unit -> bool)
(** The Section 3 scenario on two processes: the subject (p0, which holds
    the edge's request token) falsely suspects the watcher (p1, which holds
    the fork) until [mistake_until], enters its critical section on the
    virtual fork during that prefix, and — as the [8] construction's
    subject — never exits. Returns the engine and the extracted
    "suspected?" output at the watcher. The flawed construction flips it
    forever; [`Our_reduction] converges. *)

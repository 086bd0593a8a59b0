open Dsim

type config = {
  base : Check.Config.t;
  por : bool;
  max_schedules : int;
  split_depth : int;
  jobs : int;
  crash_budget : int;
  crash_grid : int;
  collect_schedules : bool;
}

let default ~base =
  {
    base;
    por = true;
    max_schedules = 20_000;
    split_depth = 4;
    jobs = 1;
    crash_budget = 0;
    crash_grid = 4;
    collect_schedules = false;
  }

type violation = { crash_index : int; schedule_index : int; repro : Check.Repro.t }

type stats = {
  crash_schedules : int;
  schedules : int;
  pruned : int;
  violation_count : int;
  max_decisions : int;
  truncated : bool;
}

type result = {
  stats : stats;
  violations : violation list;
  schedules : Adversary.decision array list;
}

let dls_bounds (c : Check.Config.t) =
  match c.Check.Config.adversary with
  | Check.Config.Dls { delta; phi } -> (delta, phi)
  | _ -> invalid_arg "Mc.Explore: the config adversary must be the Dls family"

let schedule_key decisions =
  let buf = Buffer.create (4 * Array.length decisions) in
  Array.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf '.';
      match d with
      | Adversary.Step s -> Buffer.add_string buf (if s then "S1" else "S0")
      | Adversary.Delay d ->
          Buffer.add_char buf 'D';
          Buffer.add_string buf (string_of_int d))
    decisions;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* One node visit: re-execute the engine, replaying [prefix] and
   extending it with first choices. The controller mirrors the engine's
   weak-fairness accounting (engine.ml: [forced = clock - last_step >=
   fairness_bound], and a step — offered or forced — resets [last_step])
   so forced queries never branch, and maintains the sleep set along the
   replayed prefix so reduction state needs no snapshotting: a [Step
   false] at an unforced, awake pid can only be a descended sibling, which
   is exactly the "put it to sleep" case. *)

exception Cut
(* Raised by the controller to abandon an engine run once the root-split
   depth is reached; the partial tape becomes a subtree root. *)

type visit =
  | Completed of {
      decisions : Adversary.decision array;
      outcome : Check.Runner.outcome;
      pending : Adversary.decision array list;
      fresh_pruned : int;
    }
  | Cut_at of {
      prefix : Adversary.decision array;
      pending : Adversary.decision array list;
      fresh_pruned : int;
    }

let visit ?cut ~registry ~graph ~delta ~phi ~por (cfg : Check.Config.t)
    (prefix : Adversary.decision array) =
  let n = Graphs.Conflict_graph.n graph in
  let last_step = Array.make n 0 in
  let sleep = Array.make n false in
  let chosen = ref [] (* reversed tape so far *) in
  let count = ref 0 in
  let pending = ref [] (* untaken siblings, head = next in DFS order *) in
  let fresh_pruned = ref 0 in
  let wake pid =
    sleep.(pid) <- false;
    Graphs.Conflict_graph.iter_neighbors graph pid (fun q -> sleep.(q) <- false)
  in
  let sibling d = Array.of_list (List.rev (d :: !chosen)) in
  let controller q =
    let i = !count in
    (match cut with Some depth when i >= depth -> raise Cut | _ -> ());
    let answer =
      if i < Array.length prefix then prefix.(i)
      else begin
        (* Fresh position: pick the first branch, queue the siblings.
           Prepending each position's siblings keeps [pending] in DFS
           order — deeper positions come first, in-order within one. *)
        match q with
        | Adversary.Step_q { now; pid } ->
            let forced = now - last_step.(pid) >= phi in
            if forced then Adversary.Step true
            else if por && sleep.(pid) then begin
              incr fresh_pruned;
              Adversary.Step false
            end
            else begin
              pending := sibling (Adversary.Step false) :: !pending;
              Adversary.Step true
            end
        | Adversary.Delay_q _ ->
            let rec siblings d acc =
              if d < 2 then acc else siblings (d - 1) (sibling (Adversary.Delay d) :: acc)
            in
            pending := siblings delta !pending;
            Adversary.Delay 1
      end
    in
    (match (q, answer) with
    | Adversary.Step_q { now; pid }, Adversary.Step s ->
        let forced = now - last_step.(pid) >= phi in
        if s || forced then begin
          last_step.(pid) <- now;
          wake pid
        end
        else sleep.(pid) <- true
    | Adversary.Delay_q { dst; _ }, Adversary.Delay _ -> wake dst
    | Adversary.Step_q _, Adversary.Delay _ | Adversary.Delay_q _, Adversary.Step _ ->
        (* Query kinds are deterministic in the answered prefix, so a
           replayed decision always matches its query. *)
        assert false);
    chosen := answer :: !chosen;
    incr count;
    answer
  in
  match
    try `Done (Check.Runner.run ~control:(Drive controller) ~registry cfg)
    with Cut -> `Abandoned
  with
  | `Done outcome ->
      Completed
        {
          decisions = Array.of_list (List.rev !chosen);
          outcome;
          pending = !pending;
          fresh_pruned = !fresh_pruned;
        }
  | `Abandoned ->
      Cut_at
        {
          prefix = Array.of_list (List.rev !chosen);
          pending = !pending;
          fresh_pruned = !fresh_pruned;
        }

(* ------------------------------------------------------------------ *)
(* Phase 1: sequential root split. DFS down to [split_depth] decisions,
   producing the ordered frontier — completed short schedules stay
   leaves; everything else becomes a subtree root for phase 2. *)

type item =
  | Leaf of { decisions : Adversary.decision array; outcome : Check.Runner.outcome }
  | Subtree of Adversary.decision array

let split ~registry ~graph ~delta ~phi ~por ~split_depth cfg =
  let items = ref [] (* reversed enumeration order *) in
  let pruned = ref 0 in
  let stack = ref [ [||] ] in
  let rec loop () =
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        (if Array.length prefix >= split_depth then items := Subtree prefix :: !items
         else
           match visit ~cut:split_depth ~registry ~graph ~delta ~phi ~por cfg prefix with
           | Completed { decisions; outcome; pending; fresh_pruned } ->
               pruned := !pruned + fresh_pruned;
               items := Leaf { decisions; outcome } :: !items;
               stack := pending @ !stack
           | Cut_at { prefix = p; pending; fresh_pruned } ->
               pruned := !pruned + fresh_pruned;
               items := Subtree p :: !items;
               stack := pending @ !stack);
        loop ()
  in
  loop ();
  (List.rev !items, !pruned)

(* ------------------------------------------------------------------ *)
(* Phase 2: one work item, on a pool worker. Everything it needs derives
   from its item; results merge in item order (Pool.map's contract). *)

type worker_result = {
  w_schedules : int;
  w_pruned : int;
  w_max_decisions : int;
  w_truncated : bool;
  w_violations : (int * Check.Repro.t) list; (* local schedule index *)
  w_collected : Adversary.decision array list;
}

let record_schedule ~collect ~cfg ~collected ~violations ~local_index decisions
    (outcome : Check.Runner.outcome) =
  if collect then collected := decisions :: !collected;
  match outcome.Check.Runner.failed with
  | [] -> ()
  | _ :: _ ->
      let overrides = List.mapi (fun i d -> (i, d)) (Array.to_list decisions) in
      let repro =
        Check.Repro.v ~config:cfg ~len:(Array.length decisions) ~overrides
          ~checks:outcome.Check.Runner.checks
      in
      violations := (local_index, repro) :: !violations

let explore_subtree ~registry ~graph ~delta ~phi ~por ~budget ~collect cfg root =
  let schedules = ref 0 in
  let pruned = ref 0 in
  let max_decisions = ref 0 in
  let truncated = ref false in
  let violations = ref [] in
  let collected = ref [] in
  let stack = ref [ root ] in
  let rec loop () =
    match !stack with
    | [] -> ()
    | _ :: _ when !schedules >= budget -> truncated := true
    | prefix :: rest ->
        stack := rest;
        (match visit ~registry ~graph ~delta ~phi ~por cfg prefix with
        | Completed { decisions; outcome; pending; fresh_pruned } ->
            pruned := !pruned + fresh_pruned;
            max_decisions := max !max_decisions (Array.length decisions);
            record_schedule ~collect ~cfg ~collected ~violations ~local_index:!schedules
              decisions outcome;
            incr schedules;
            stack := pending @ !stack
        | Cut_at _ -> assert false (* no cut depth in phase 2 *));
        loop ()
  in
  loop ();
  {
    w_schedules = !schedules;
    w_pruned = !pruned;
    w_max_decisions = !max_decisions;
    w_truncated = !truncated;
    w_violations = List.rev !violations;
    w_collected = List.rev !collected;
  }

let leaf_result ~collect ~cfg decisions outcome =
  let violations = ref [] in
  let collected = ref [] in
  record_schedule ~collect ~cfg ~collected ~violations ~local_index:0 decisions outcome;
  {
    w_schedules = 1;
    w_pruned = 0 (* phase 1 already counted its prunes *);
    w_max_decisions = Array.length decisions;
    w_truncated = false;
    w_violations = List.rev !violations;
    w_collected = List.rev !collected;
  }

(* ------------------------------------------------------------------ *)
(* Crash-schedule enumeration: all sorted pid/tick assignments of size up
   to the budget, smallest first, pids ascending, ticks ascending — a
   canonical order so reports are stable. *)

let crash_schedules mc =
  let n = Check.Config.n_procs mc.base in
  let horizon = mc.base.Check.Config.horizon in
  let grid = max 1 mc.crash_grid in
  let ticks =
    let rec go t acc = if t > horizon then List.rev acc else go (t + grid) (t :: acc) in
    go grid []
  in
  let rec extend first_pid size acc =
    if size = 0 then [ List.rev acc ]
    else
      List.concat_map
        (fun pid ->
          List.concat_map (fun t -> extend (pid + 1) (size - 1) ((pid, t) :: acc)) ticks)
        (List.init (n - first_pid) (fun i -> first_pid + i))
  in
  List.concat_map
    (fun size -> extend 0 size [])
    (List.init (max 0 mc.crash_budget + 1) Fun.id)

(* ------------------------------------------------------------------ *)

let run ?progress ?metrics ~registry mc =
  let delta, phi = dls_bounds mc.base in
  (match mc.base.Check.Config.handicap with
  | None -> ()
  | Some _ -> invalid_arg "Mc.Explore.run: handicapped configs are not explorable");
  if mc.split_depth < 0 then invalid_arg "Mc.Explore.run: split_depth must be >= 0";
  if mc.max_schedules < 1 then invalid_arg "Mc.Explore.run: max_schedules must be >= 1";
  let graph = Check.Config.graph mc.base in
  let por = mc.por in
  let crash_scheds = crash_schedules mc in
  let schedules = ref 0 in
  let pruned = ref 0 in
  let max_decisions = ref 0 in
  let truncated = ref false in
  let violations = ref [] (* reversed global order *) in
  let collected = ref [] (* reversed global order *) in
  List.iteri
    (fun crash_index crashes ->
      let cfg = { mc.base with Check.Config.crashes = crashes } in
      let items, split_pruned =
        split ~registry ~graph ~delta ~phi ~por ~split_depth:mc.split_depth cfg
      in
      pruned := !pruned + split_pruned;
      let items = Array.of_list items in
      let results =
        Exec.Pool.map ~jobs:(max 1 mc.jobs) (Array.length items) (fun i ->
            match items.(i) with
            | Leaf { decisions; outcome } ->
                leaf_result ~collect:mc.collect_schedules ~cfg decisions outcome
            | Subtree root ->
                explore_subtree ~registry ~graph ~delta ~phi ~por
                  ~budget:mc.max_schedules ~collect:mc.collect_schedules cfg root)
      in
      Array.iter
        (fun w ->
          List.iter
            (fun (local, repro) ->
              violations :=
                { crash_index; schedule_index = !schedules + local; repro } :: !violations)
            w.w_violations;
          List.iter (fun d -> collected := d :: !collected) w.w_collected;
          schedules := !schedules + w.w_schedules;
          pruned := !pruned + w.w_pruned;
          max_decisions := max !max_decisions w.w_max_decisions;
          truncated := !truncated || w.w_truncated)
        results;
      match progress with
      | None -> ()
      | Some f ->
          f
            {
              crash_schedules = crash_index + 1;
              schedules = !schedules;
              pruned = !pruned;
              violation_count = List.length !violations;
              max_decisions = !max_decisions;
              truncated = !truncated;
            })
    crash_scheds;
  let stats =
    {
      crash_schedules = List.length crash_scheds;
      schedules = !schedules;
      pruned = !pruned;
      violation_count = List.length !violations;
      max_decisions = !max_decisions;
      truncated = !truncated;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let bump name v = Obs.Metrics.incr ~by:v (Obs.Metrics.counter m name) in
      bump "mc_schedules" stats.schedules;
      bump "mc_pruned_branches" stats.pruned;
      bump "mc_violations" stats.violation_count;
      bump "mc_crash_schedules" stats.crash_schedules);
  { stats; violations = List.rev !violations; schedules = List.rev !collected }

let random_schedule ~registry (cfg : Check.Config.t) rng =
  let delta, phi = dls_bounds cfg in
  let n = Check.Config.n_procs cfg in
  let last_step = Array.make n 0 in
  let chosen = ref [] in
  let controller q =
    let d =
      match q with
      | Adversary.Step_q { now; pid } ->
          let forced = now - last_step.(pid) >= phi in
          (* Forced queries are normalised to [Step true], matching the
             exhaustive enumeration's single branch. *)
          let s = forced || Prng.chance rng ~p:0.5 in
          if s then last_step.(pid) <- now;
          Adversary.Step s
      | Adversary.Delay_q _ -> Adversary.Delay (Prng.int_in rng ~lo:1 ~hi:delta)
    in
    chosen := d :: !chosen;
    d
  in
  let (_ : Check.Runner.outcome) = Check.Runner.run ~control:(Drive controller) ~registry cfg in
  Array.of_list (List.rev !chosen)

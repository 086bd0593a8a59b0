open Dsim

type report = {
  lemma : string;
  violations : string list;
  info : string;
}

let ok r = r.violations = []
let all_ok rs = List.for_all ok rs

let pp_report fmt r =
  Format.fprintf fmt "%-8s %s %s" r.lemma (if ok r then "OK " else "FAIL") r.info;
  List.iter (fun v -> Format.fprintf fmt "@,  - %s" v) r.violations

(* Violation accumulator capped to keep traces of long runs small. *)
module Acc = struct
  type t = { mutable items : string list; mutable count : int }

  let create () = { items = []; count = 0 }

  let add t msg =
    t.count <- t.count + 1;
    if t.count <= 10 then t.items <- t.items @ [ msg ]

  let violations t =
    if t.count > 10 then t.items @ [ Printf.sprintf "... (%d total)" t.count ] else t.items
end

type online = {
  engine : Engine.t;
  pair : Pair.t;
  l2 : Acc.t;
  l3 : Acc.t;
  l4 : Acc.t;
  l9 : Acc.t;
  mutable l8_last_violation : int;
  mutable l8_violations : int;
}

let phase_of (h : Dining.Spec.handle) = h.Dining.Spec.phase ()

let install_online ~engine ~pair =
  let o =
    {
      engine;
      pair;
      l2 = Acc.create ();
      l3 = Acc.create ();
      l4 = Acc.create ();
      l9 = Acc.create ();
      l8_last_violation = 0;
      l8_violations = 0;
    }
  in
  let s_phase i = phase_of pair.Pair.s_handles.(i) in
  let w_phase i = phase_of pair.Pair.w_handles.(i) in
  let subject_live () = Engine.is_live engine pair.Pair.subject in
  let watcher_live () = Engine.is_live engine pair.Pair.watcher in
  Engine.on_tick engine (fun () ->
      let now = Engine.now engine in
      if subject_live () then begin
        for i = 0 to 1 do
          let eating = Types.phase_equal (s_phase i) Types.Eating in
          let ping = pair.Pair.subject_threads.Subject.ping_flag i in
          (* Lemma 2 *)
          if (not eating) && not ping then
            Acc.add o.l2 (Printf.sprintf "t=%d: s_%d not eating but ping_%d=false" now i i);
          (* Lemma 4 *)
          if
            Types.phase_equal (s_phase i) Types.Hungry
            && pair.Pair.subject_threads.Subject.trigger () <> i
          then Acc.add o.l4 (Printf.sprintf "t=%d: s_%d hungry but trigger<>%d" now i i);
          (* Lemma 3: no ping_i/ack_i in transit when (not eating) /\ ping_i *)
          if (not eating) && ping && watcher_live () then begin
            let pings =
              Engine.in_flight_filtered engine ~tag:pair.Pair.witness_tag ~f:(function
                | Messages.Ping j -> j = i
                (* simlint: allow D015 — in-flight classifier, not a handler: the filter counts Ping_i and deliberately ignores every other message *)
                | _ -> false)
            in
            let acks =
              Engine.in_flight_filtered engine ~tag:pair.Pair.subject_tag ~f:(function
                | Messages.Ack j -> j = i
                (* simlint: allow D015 — in-flight classifier, not a handler: the filter counts Ack_i and deliberately ignores every other message *)
                | _ -> false)
            in
            if pings + acks > 0 then
              Acc.add o.l3
                (Printf.sprintf "t=%d: %d ping(s), %d ack(s) in transit on idle channel %d" now
                   pings acks i)
          end
        done;
        (* Lemma 8 suffix invariant *)
        if
          not
            (Types.phase_equal (s_phase 0) Types.Eating
            || Types.phase_equal (s_phase 1) Types.Eating)
        then begin
          o.l8_last_violation <- now;
          o.l8_violations <- o.l8_violations + 1
        end
      end;
      (* Lemma 9 *)
      if
        watcher_live ()
        && not
             (Types.phase_equal (w_phase 0) Types.Thinking
             || Types.phase_equal (w_phase 1) Types.Thinking)
      then Acc.add o.l9 (Printf.sprintf "t=%d: no witness thinking" now));
  o

let online_reports o =
  let now = Engine.now o.engine in
  let l8 =
    let subject_crashed = not (Engine.is_live o.engine o.pair.Pair.subject) in
    let converged = o.l8_last_violation < now - (now / 4) in
    {
      lemma = "L8";
      violations =
        (if subject_crashed || converged then []
         else
           [
             Printf.sprintf "suffix invariant still violated at t=%d (horizon %d)"
               o.l8_last_violation now;
           ]);
      info =
        Printf.sprintf "last-violation=%d total=%d%s" o.l8_last_violation o.l8_violations
          (if subject_crashed then " (subject crashed: n/a)" else "");
    }
  in
  [
    { lemma = "L2"; violations = Acc.violations o.l2; info = "state invariant" };
    { lemma = "L3"; violations = Acc.violations o.l3; info = "quiescent channels" };
    { lemma = "L4"; violations = Acc.violations o.l4; info = "state invariant" };
    l8;
    { lemma = "L9"; violations = Acc.violations o.l9; info = "some witness thinking" };
  ]

(* ------------------------------------------------------------------ *)
(* Post-hoc schedule lemmas *)

let trace_reports ~engine ~pair =
  let trace = Engine.trace engine in
  let horizon = Engine.now engine in
  let slack = max 1000 (horizon / 5) in
  let both_correct =
    Engine.is_live engine pair.Pair.watcher && Engine.is_live engine pair.Pair.subject
  in
  let watcher_correct = Engine.is_live engine pair.Pair.watcher in
  (* One pass: both instances' phase histories and the subject's ping/ack
     notes of each instance. *)
  let folds = Array.map (fun instance -> Trace.Phases.create ~instance) pair.Pair.dx_instances in
  let tags = Array.init 2 (fun i -> Printf.sprintf "%s:%d" pair.Pair.subject_tag i) in
  let pings = Array.make 2 [] and acks = Array.make 2 [] in
  Trace.iter trace (fun e ->
      Array.iter (fun f -> Trace.Phases.observe f e) folds;
      match e.Trace.ev with
      | Trace.Note { pid; label; info } when pid = pair.Pair.subject ->
          for i = 0 to 1 do
            if String.equal info tags.(i) then
              if String.equal label "red-ping" then pings.(i) <- e.Trace.at :: pings.(i)
              else if String.equal label "red-ack" then acks.(i) <- e.Trace.at :: acks.(i)
          done
      | _ -> ());
  let runs = Array.map (fun f -> Dining.Monitor.finish f ~horizon) folds in
  let times l = Array.of_list (List.rev l) in
  (* Lemma 5: one ping and one ack per completed subject eating session. *)
  let l5_violations = ref [] in
  if both_correct then
    for i = 0 to 1 do
      let sessions =
        Dining.Monitor.Run.timeline runs.(i) ~pid:pair.Pair.subject
        |> List.filter_map (fun (a, b, ph) ->
               if Types.phase_equal ph Types.Eating && b < horizon - slack then Some (a, b)
               else None)
      in
      (* pings in [a, b); acks in (a, b] *)
      let nps = Dining.Monitor.counts_in (times pings.(i)) sessions in
      let nas =
        Dining.Monitor.counts_in (times acks.(i)) (List.map (fun (a, b) -> (a + 1, b + 1)) sessions)
      in
      List.iter2
        (fun (a, b) (np, na) ->
          if np <> 1 then
            l5_violations :=
              Printf.sprintf "s_%d session [%d,%d): %d pings" i a b np :: !l5_violations;
          if na <> 1 then
            l5_violations :=
              Printf.sprintf "s_%d session [%d,%d): %d acks" i a b na :: !l5_violations)
        sessions (List.combine nps nas)
    done;
  (* Lemmas 7 and 11: threads eat repeatedly. *)
  let counts role pid =
    List.map
      (fun i -> Dining.Monitor.Run.eat_count runs.(i) ~pid)
      [ 0; 1 ]
    |> fun l -> (role, l)
  in
  let _, s_counts = counts "subject" pair.Pair.subject in
  let _, w_counts = counts "witness" pair.Pair.watcher in
  let l7 =
    {
      lemma = "L7";
      violations =
        (if both_correct && List.exists (fun c -> c < 2) s_counts then
           [ Printf.sprintf "subjects ate only %s times" (String.concat "/" (List.map string_of_int s_counts)) ]
         else []);
      info = Printf.sprintf "subject eats: %s" (String.concat "/" (List.map string_of_int s_counts));
    }
  in
  let l11 =
    {
      lemma = "L11";
      violations =
        (if watcher_correct && List.exists (fun c -> c < 2) w_counts then
           [ Printf.sprintf "witnesses ate only %s times" (String.concat "/" (List.map string_of_int w_counts)) ]
         else []);
      info = Printf.sprintf "witness eats: %s" (String.concat "/" (List.map string_of_int w_counts));
    }
  in
  (* Lemma 12: between consecutive eats of w_i, w_{1-i} eats exactly once. *)
  let l12_violations = ref [] in
  if watcher_correct then
    for i = 0 to 1 do
      let starts_i = Dining.Monitor.Run.eating_starts runs.(i) ~pid:pair.Pair.watcher in
      let starts_other = Dining.Monitor.Run.eating_starts runs.(1 - i) ~pid:pair.Pair.watcher in
      (* consecutive eats a <= b of w_i; w_{1-i} eats in (a, b) *)
      let gaps =
        List.init (max 0 (Array.length starts_i - 1)) (fun k -> (starts_i.(k), starts_i.(k + 1)))
      in
      List.iter2
        (fun (a, b) c ->
          if c <> 1 then
            l12_violations :=
              Printf.sprintf "w_%d eats at %d and %d with %d w_%d eats between" i a b c (1 - i)
              :: !l12_violations)
        gaps
        (Dining.Monitor.counts_in starts_other (List.map (fun (a, b) -> (a + 1, b)) gaps))
    done;
  (* Lemma 1 (wait-freedom of the subjects) and Lemma 6 (finite eating),
     judged only when both processes are correct. *)
  let l1_violations = ref [] in
  let l6_violations = ref [] in
  if both_correct then
    for i = 0 to 1 do
      List.iter
        (fun (a, b, ph) ->
          if Types.phase_equal ph Types.Hungry && b >= horizon && a < horizon - slack then
            l1_violations := Printf.sprintf "s_%d hungry since t=%d unserved" i a :: !l1_violations;
          if Types.phase_equal ph Types.Eating && b >= horizon && a < horizon - slack then
            l6_violations := Printf.sprintf "s_%d eating since t=%d never exits" i a :: !l6_violations)
        (Dining.Monitor.Run.timeline runs.(i) ~pid:pair.Pair.subject)
    done;
  [
    { lemma = "L1"; violations = List.rev !l1_violations; info = "hungry subjects eat" };
    { lemma = "L5"; violations = List.rev !l5_violations; info = "one ping/ack per session" };
    { lemma = "L6"; violations = List.rev !l6_violations; info = "finite subject eating" };
    l7;
    l11;
    { lemma = "L12"; violations = List.rev !l12_violations; info = "witness alternation" };
  ]

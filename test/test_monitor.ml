(* The one-pass checker (Dining.Monitor) against the quadratic monitors it
   replaced (Oracle_monitor), on random small traces; the same checker run
   live as a trace subscriber; and the suffix rule of eventual weak
   exclusion on hand-built traces. *)

open Dsim
module M = Dining.Monitor
module R = Dining.Monitor.Run
module O = Oracle_monitor

(* ------------------------------------------------------------------ *)
(* Random traces *)

(* One trace entry, [dt] ticks after the previous one (0: same tick, so
   zero-length phases occur). A transition either follows the dining
   cycle or jumps to an arbitrary phase. *)
type step =
  | Move of { dt : int; inst : int; pid : int; jump : Types.phase option }
  | Crash of { dt : int; pid : int }
  | Noise of { dt : int; kind : int; pid : int }

type case = {
  n : int;
  edges : int;
  graph_seed : int;
  steps : step list;
  horizon_delta : int;  (** horizon = last entry time + delta; may cut the trace short *)
  slack : int;
  suffix_from : int;
  after : int;
  pids : int list;  (** fairness_index argument, may name unknown diners *)
}

let instances = [| "a"; "b" |]
let phases = [| Types.Thinking; Types.Hungry; Types.Eating; Types.Exiting |]

let next = function
  | Types.Thinking -> Types.Hungry
  | Types.Hungry -> Types.Eating
  | Types.Eating -> Types.Exiting
  | Types.Exiting -> Types.Thinking

let case_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let step =
    let* dt = int_range 0 3 and* pid = int_range 0 (n - 1) in
    frequency
      [
        ( 12,
          let* inst = int_range 0 1 and* jump = opt ~ratio:0.15 (oneofa phases) in
          return (Move { dt; inst; pid; jump }) );
        (1, return (Crash { dt; pid }));
        (3, map (fun kind -> Noise { dt; kind; pid }) (int_range 0 2));
      ]
  in
  let* edges = int_range 0 (n * (n - 1) / 2)
  and* graph_seed = int_range 0 1_000_000
  and* steps = list_size (int_range 0 80) step
  and* horizon_delta = int_range (-6) 8
  and* slack = int_range 0 40
  and* suffix_from = int_range 0 120
  and* after = int_range 0 120
  and* pids = list_size (int_range 0 4) (int_range 0 (n + 1)) in
  return { n; edges; graph_seed; steps; horizon_delta; slack; suffix_from; after; pids }

let build c =
  let tr = Trace.create () in
  let phase = Array.make_matrix 2 c.n Types.Thinking in
  let now = ref 0 in
  List.iter
    (fun s ->
      match s with
      | Move { dt; inst; pid; jump } ->
          now := !now + dt;
          let from_ = phase.(inst).(pid) in
          let to_ = Option.value jump ~default:(next from_) in
          phase.(inst).(pid) <- to_;
          Trace.append tr ~at:!now
            (Trace.Transition { instance = instances.(inst); pid; from_; to_ })
      | Crash { dt; pid } ->
          now := !now + dt;
          Trace.append tr ~at:!now (Trace.Crash { pid })
      | Noise { dt; kind; pid } ->
          now := !now + dt;
          let target = (pid + 1) mod c.n in
          Trace.append tr ~at:!now
            (match kind with
            | 0 -> Trace.Suspect { detector = "d"; owner = pid; target }
            | 1 -> Trace.Trust { detector = "d"; owner = pid; target }
            | _ -> Trace.Note { pid; label = "n"; info = "a" }))
    c.steps;
  let graph =
    if c.n < 2 then Graphs.Conflict_graph.empty ~n:c.n
    else
      Graphs.Conflict_graph.gnm ~n:c.n ~m:c.edges
        ~rng:(Prng.create (Int64.of_int c.graph_seed))
  in
  (tr, graph, max 0 (!now + c.horizon_delta))

let vkey (v : M.violation) = (v.M.at, v.M.until, v.M.p, v.M.q)
let okey (v : O.violation) = (v.O.at, v.O.until, v.O.p, v.O.q)

(* The names of the queries on which checker and oracle disagree. *)
let disagreements c =
  let trace, graph, horizon = build c in
  let bad = ref [] in
  let expect name ok = if not ok then bad := name :: !bad in
  Array.iter
    (fun instance ->
      let r = M.finish (Trace.Phases.of_trace trace ~instance) ~horizon in
      let expect what = expect (instance ^ ": " ^ what) in
      let ovs = List.map okey (O.exclusion_violations trace ~instance ~graph ~horizon) in
      expect "violations" (List.map vkey (R.exclusion_violations r ~graph) = ovs);
      expect "violations view"
        (List.map vkey (M.exclusion_violations trace ~instance ~graph ~horizon) = ovs);
      expect "last_violation_time"
        (R.last_violation_time r ~graph = O.last_violation_time trace ~instance ~graph ~horizon);
      expect "max_overtaking"
        (R.max_overtaking r ~graph ~after:c.after
        = O.max_overtaking trace ~instance ~graph ~after:c.after ~horizon);
      for pid = 0 to c.n do
        let oracle_timeline = O.Trace.phase_timeline trace ~instance ~pid ~horizon in
        expect "timeline" (R.timeline r ~pid = oracle_timeline);
        expect "Trace.phase_timeline"
          (Trace.phase_timeline trace ~instance ~pid ~horizon = oracle_timeline);
        expect "Trace.eating_intervals"
          (Trace.eating_intervals trace ~instance ~pid ~horizon
          = O.Trace.eating_intervals trace ~instance ~pid ~horizon);
        expect "eat_count" (R.eat_count r ~pid = O.eat_count trace ~instance ~pid);
        expect "live_eating_intervals"
          (R.live_eating_intervals r ~pid = O.live_eating_intervals trace ~instance ~pid ~horizon);
        expect "hungry_wait_times"
          (R.hungry_wait_times r ~pid = O.hungry_wait_times trace ~instance ~pid ~horizon)
      done;
      let n = c.n and slack = c.slack in
      expect "starved" (R.starved r ~n ~slack = O.starved trace ~instance ~n ~horizon ~slack);
      expect "failure_locality"
        (R.failure_locality r ~graph ~slack
        = O.failure_locality trace ~instance ~graph ~horizon ~slack);
      expect "fairness_index"
        (R.fairness_index r ~pids:c.pids = O.fairness_index trace ~instance ~pids:c.pids);
      expect "wait_freedom"
        (R.wait_freedom r ~n ~slack = O.wait_freedom trace ~instance ~n ~horizon ~slack);
      expect "exiting_finite"
        (R.exiting_finite r ~n ~slack = O.exiting_finite trace ~instance ~n ~horizon ~slack);
      expect "eventual_weak_exclusion"
        (R.eventual_weak_exclusion r ~graph ~suffix_from:c.suffix_from
        = O.eventual_weak_exclusion trace ~instance ~graph ~horizon ~suffix_from:c.suffix_from);
      expect "perpetual_weak_exclusion"
        (R.perpetual_weak_exclusion r ~graph
        = O.perpetual_weak_exclusion trace ~instance ~graph ~horizon))
    instances;
  List.rev !bad

let prop_agrees_with_oracle =
  QCheck2.Test.make ~name:"one pass agrees with the quadratic oracle" ~count:1000 case_gen
    (fun c ->
      match disagreements c with
      | [] -> true
      | bad ->
          let trace, _, horizon = build c in
          QCheck2.Test.fail_reportf "disagree on %s (n=%d, horizon=%d)@.%a"
            (String.concat ", " bad) c.n horizon (Trace.dump ?limit:None) trace)

(* The generator does reach the interesting cases. *)
let test_generator_coverage () =
  let rand = Random.State.make [| 7 |] in
  let cases = QCheck2.Gen.generate ~rand ~n:300 case_gen in
  let count p = List.length (List.filter p cases) in
  let overlaps c =
    let trace, graph, horizon = build c in
    O.exclusion_violations trace ~instance:"a" ~graph ~horizon <> []
  in
  let someone_starves c =
    let trace, graph, horizon = build c in
    O.failure_locality trace ~instance:"a" ~graph ~horizon ~slack:c.slack <> Some 0
  in
  Alcotest.(check bool) "some traces have overlaps" true (count overlaps > 30);
  Alcotest.(check bool) "some traces starve a diner" true (count someone_starves > 10)

(* ------------------------------------------------------------------ *)
(* Live use: the fold as a subscriber of a run that retains nothing *)

let wf_run ~retain =
  let n = 5 and horizon = 6000 in
  let graph = Graphs.Conflict_graph.ring ~n in
  let engine =
    Engine.create ~seed:11L ~retain_trace:retain ~n
      ~adversary:(Adversary.partial_sync ~gst:500 ())
      ()
  in
  let live = Trace.Phases.create ~instance:"dx" in
  if not retain then Trace.subscribe (Engine.trace engine) (Trace.Phases.observe live);
  let suspects = Core.Scenario.evp_suspects engine ~n ~windows:[] in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ =
      Dining.Wf_ewx.component ctx ~instance:"dx" ~graph ~suspects:(suspects pid) ()
    in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  Engine.schedule_crash engine 2 ~at:2500;
  Engine.run engine ~until:horizon;
  let trace = Engine.trace engine in
  let fold = if retain then Trace.Phases.of_trace trace ~instance:"dx" else live in
  let r = M.finish fold ~horizon in
  let summary =
    ( List.map vkey (R.exclusion_violations r ~graph),
      ( R.wait_freedom r ~n ~slack:1000,
        R.exiting_finite r ~n ~slack:1000,
        R.eventual_weak_exclusion r ~graph ~suffix_from:3000 ),
      ( R.max_overtaking r ~graph ~after:3000,
        R.failure_locality r ~graph ~slack:1000,
        R.fairness_index r ~pids:(List.init n Fun.id) ),
      List.init n (fun pid -> (R.eat_count r ~pid, R.timeline r ~pid, R.crash_time r pid)) )
  in
  (summary, Trace.length trace)

let test_subscriber_equals_post_hoc () =
  let live, retained_live = wf_run ~retain:false in
  let post, retained_post = wf_run ~retain:true in
  Alcotest.(check int) "streaming run retains nothing" 0 retained_live;
  Alcotest.(check bool) "post-hoc run retained its trace" true (retained_post > 1000);
  let _, _, _, diners = post in
  Alcotest.(check bool) "the run has meals and a crash" true
    (List.for_all (fun (meals, _, _) -> meals > 0) diners
    && List.exists (fun (_, _, crash) -> crash <> None) diners);
  Alcotest.(check bool) "same verdicts and statistics" true (live = post)

(* ------------------------------------------------------------------ *)
(* The suffix rule of eventual weak exclusion *)

(* Neighbours p0 and p1 both eat over [eat_from, eat_until). *)
let overlap_trace ~eat_from ~eat_until =
  let tr = Trace.create () in
  List.iter
    (fun pid ->
      let trans at from_ to_ =
        Trace.append tr ~at (Trace.Transition { instance = "i"; pid; from_; to_ })
      in
      trans (eat_from - 1) Types.Thinking Types.Hungry;
      trans eat_from Types.Hungry Types.Eating;
      trans eat_until Types.Eating Types.Exiting)
    [ 0; 1 ];
  tr

let wx tr ~suffix_from =
  M.eventual_weak_exclusion tr ~instance:"i" ~graph:(Graphs.Conflict_graph.pair ()) ~horizon:1000
    ~suffix_from

let test_straddling_overlap_fails () =
  let v = wx (overlap_trace ~eat_from:99 ~eat_until:200) ~suffix_from:100 in
  Alcotest.(check bool) "overlap over [99,200) violates the suffix from 100" false
    v.Detectors.Properties.holds;
  Alcotest.(check (list string)) "detail names the overlap"
    [ "[i] live neighbors p0 and p1 eating simultaneously during [99,200) (suffix from 100)" ]
    v.Detectors.Properties.details

let test_overlap_ending_at_suffix_holds () =
  let v = wx (overlap_trace ~eat_from:50 ~eat_until:100) ~suffix_from:100 in
  Alcotest.(check bool) "overlap over [50,100) is before the suffix from 100" true
    v.Detectors.Properties.holds;
  let v = wx (overlap_trace ~eat_from:50 ~eat_until:100) ~suffix_from:99 in
  Alcotest.(check bool) "but not before a suffix from 99" false v.Detectors.Properties.holds

(* ------------------------------------------------------------------ *)
(* Failure locality: None when a starved diner has no crash to blame *)

let test_failure_locality_none_cases () =
  (* Path 0-1-2 plus an isolated diner 3; everyone gets hungry at t=1 and
     nobody eats. *)
  let graph = Graphs.Conflict_graph.of_edges ~n:4 [ (0, 1); (1, 2) ] in
  let hungry crashes =
    let tr = Trace.create () in
    for pid = 0 to 3 do
      Trace.append tr ~at:1
        (Trace.Transition { instance = "i"; pid; from_ = Types.Thinking; to_ = Types.Hungry })
    done;
    List.iter (fun pid -> Trace.append tr ~at:2 (Trace.Crash { pid })) crashes;
    M.failure_locality tr ~instance:"i" ~graph ~horizon:100 ~slack:10
  in
  Alcotest.(check (option int)) "no crash at all" None (hungry []);
  Alcotest.(check (option int)) "diner 3 cannot reach the crash" None (hungry [ 2 ]);
  Alcotest.(check (option int)) "nearest crash two hops away" (Some 2) (hungry [ 2; 3 ]);
  Alcotest.(check (option int)) "nearest of two crashes" (Some 1) (hungry [ 1; 3 ])

let () =
  Alcotest.run "monitor"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_agrees_with_oracle;
          Alcotest.test_case "generator reaches overlaps and starvation" `Quick
            test_generator_coverage;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "subscriber equals post-hoc" `Quick
            test_subscriber_equals_post_hoc;
        ] );
      ( "suffix rule",
        [
          Alcotest.test_case "straddling overlap fails" `Quick test_straddling_overlap_fails;
          Alcotest.test_case "overlap ending at suffix start holds" `Quick
            test_overlap_ending_at_suffix_holds;
        ] );
      ( "failure locality",
        [
          Alcotest.test_case "none when no crash is reachable" `Quick
            test_failure_locality_none_cases;
        ] );
    ]

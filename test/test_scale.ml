(* Large-n stack-safety, delivery-structure equivalence and step-order
   independence.

   The engine's in-flight structure is a bucketed timing wheel; the
   previous tree-map-of-buckets implementation survives as the
   [`Reference] delivery mode. This suite is the proof the swap changed
   nothing: a same-tick flood far past the old recursion limit completes,
   randomized instances produce byte-identical traces under both modes
   (including past the wheel horizon, where the overflow map migrates),
   the incremental in-flight counters match the brute-force scan at every
   tick, and campaign reports stay byte-identical at any worker count.

   The engine steps each tick's processes in pid order; the [~permute]
   seam steps them in a random order instead, and every registry
   algorithm must behave the same per process under both. *)

open Dsim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Flood stack safety *)

let test_flood_100k_stack_safe () =
  (* 3 x 10^5 packets ripening on the same tick form one delivery bucket.
     The old [deliver_bucket] recursed to the bucket tail before
     delivering, so this flood needed ~300k stack frames — overflow; the
     iterative delivery needs O(1). Messages address an unregistered tag,
     so they drain and drop at the first step of each destination. *)
  let n = 100_000 in
  let engine = Engine.create ~seed:1L ~retain_trace:false ~n ~adversary:(Adversary.synchronous ()) () in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    for k = 1 to 3 do
      ctx.Context.send ~dst:((pid + k) mod n) ~tag:"flood" Msg.Unit_msg
    done
  done;
  check_int "all packets in flight" (3 * n) (Engine.in_flight_total engine);
  check_int "counter sees the flood" (3 * n) (Engine.in_flight engine ~tag:"flood");
  Engine.run engine ~until:3;
  check_int "flood fully delivered" 0 (Engine.in_flight_total engine);
  check_int "flood fully drained" 0 (Engine.in_flight engine ~tag:"flood");
  check_int "sends accounted" (3 * n) (Engine.sent_total engine)

(* ------------------------------------------------------------------ *)
(* Wheel vs reference delivery: byte-identical traces *)

(* Delays far beyond the 256-tick wheel horizon, so packets land in the
   overflow map and migrate into the wheel as the window reaches them —
   the one code path small-delay adversaries never touch. *)
let big_delay_adversary () =
  {
    Adversary.name = "big-delay";
    delay = (fun rng ~now:_ ~src:_ ~dst:_ -> Prng.int_in rng ~lo:1 ~hi:600);
    steps = (fun rng ~now:_ _ -> Prng.bool rng);
    fairness_bound = 8;
  }

let build_instance ~delivery ~seed ~n ~adversary =
  let engine = Engine.create ~seed ~delivery ~n ~adversary () in
  let graph = Graphs.Conflict_graph.ring ~n in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ = Dining.Hygienic.component ctx ~instance:"d" ~graph () in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  done;
  engine

let test_wheel_matches_reference () =
  (* Randomized small instances under three adversary families (bounded
     delays, partial synchrony, and overflow-exercising large delays):
     the wheel and the reference map must produce byte-identical traces
     and identical message accounting. *)
  let adversaries =
    [
      ("async", fun () -> Adversary.async_uniform ());
      ("psync", fun () -> Adversary.partial_sync ~gst:120 ());
      ("big-delay", big_delay_adversary);
    ]
  in
  for case = 0 to 11 do
    let seed = Int64.of_int (1000 + (case * 77)) in
    let n = 3 + (case mod 5) in
    let name, adv = List.nth adversaries (case mod 3) in
    let run delivery =
      let engine = build_instance ~delivery ~seed ~n ~adversary:(adv ()) in
      if case mod 4 = 0 then Engine.schedule_crash engine (n - 1) ~at:200;
      Engine.run engine ~until:900;
      ( Trace.to_csv (Engine.trace engine),
        Engine.sent_total engine,
        Engine.in_flight_total engine )
    in
    let csv_w, sent_w, fl_w = run `Wheel in
    let csv_r, sent_r, fl_r = run `Reference in
    Alcotest.(check string)
      (Printf.sprintf "case %d (%s, n=%d): traces byte-identical" case name n)
      csv_r csv_w;
    check_int (Printf.sprintf "case %d: same sends" case) sent_r sent_w;
    check_int (Printf.sprintf "case %d: same residue" case) fl_r fl_w
  done

let test_overflow_delivers_exactly_once () =
  (* Under >horizon delays every packet crosses the overflow map; nothing
     may be lost or duplicated by the migration. One round of sends from
     a live component, then run past the max delay. *)
  let n = 5 in
  let engine =
    Engine.create ~seed:9L ~n ~adversary:(big_delay_adversary ()) ()
  in
  let delivered = ref 0 in
  for pid = 0 to n - 1 do
    Engine.register engine pid
      (Component.make ~name:"probe"
         ~actions:[]
         ~on_receive:(fun ~src:_ _ -> incr delivered)
         ())
  done;
  let sends = 500 in
  let ctx = Engine.ctx engine 0 in
  for k = 1 to sends do
    ctx.Context.send ~dst:(k mod n) ~tag:"probe" Msg.Unit_msg
  done;
  Engine.run engine ~until:700;
  check_int "every overflow packet delivered exactly once" sends !delivered;
  check_int "nothing left in flight" 0 (Engine.in_flight_total engine)

(* ------------------------------------------------------------------ *)
(* Pid order vs permuted step order *)

type order_case = {
  algo : string;
  topology : [ `Ring of int | `Clique of int | `Grid of int * int ];
  adversary : [ `Partial | `Async | `Bursty | `Dls ];
  crash : (Types.pid * Types.time) option;
  seed : int64;
  permute : int64;
}

let order_horizon = 1200

let order_graph = function
  | `Ring n -> Graphs.Conflict_graph.ring ~n
  | `Clique n -> Graphs.Conflict_graph.clique ~n
  | `Grid (rows, cols) -> Graphs.Conflict_graph.grid ~rows ~cols

let order_adversary = function
  | `Partial -> Adversary.partial_sync ~gst:300 ()
  | `Async -> Adversary.async_uniform ()
  | `Bursty -> Adversary.bursty ~gst:600 ~calm:50 ~storm:30 ()
  | `Dls -> Adversary.dls ~delta:3 ~phi:2 ()

let order_case_gen =
  let open QCheck2.Gen in
  let* algo = oneofl (List.map fst Core.Scenario.default_registry)
  and* topology =
    oneof
      [
        map (fun n -> `Ring n) (int_range 3 6);
        map (fun n -> `Clique n) (int_range 3 5);
        map (fun c -> `Grid (2, c)) (int_range 2 3);
      ]
  and* adversary = oneofl [ `Partial; `Async; `Bursty; `Dls ]
  and* crash_at = opt (int_range 1 (order_horizon / 2))
  and* crash_pid = int_range 0 5
  and* seed = map Int64.of_int (int_range 0 1_000_000)
  and* permute = map Int64.of_int (int_range 0 1_000_000) in
  let n = Graphs.Conflict_graph.n (order_graph topology) in
  let crash = Option.map (fun at -> (crash_pid mod n, at)) crash_at in
  return { algo; topology; adversary; crash; seed; permute }

let describe_order_case c =
  Printf.sprintf "%s on %s under %s, crash %s, seed %Ld, permute %Ld" c.algo
    (match c.topology with
    | `Ring n -> Printf.sprintf "ring:%d" n
    | `Clique n -> Printf.sprintf "clique:%d" n
    | `Grid (r, k) -> Printf.sprintf "grid:%dx%d" r k)
    (order_adversary c.adversary).Adversary.name
    (match c.crash with Some (p, at) -> Printf.sprintf "%d@%d" p at | None -> "none")
    c.seed c.permute

(* The pid an event belongs to: the process that logged it. *)
let actor = function
  | Trace.Transition { pid; _ } | Trace.Crash { pid } | Trace.Note { pid; _ } -> pid
  | Trace.Suspect { owner; _ } | Trace.Trust { owner; _ } -> owner

(* Each process's events in order, rendered, plus the message count and
   the trace length. *)
let run_order_case ?permute c =
  let graph = order_graph c.topology in
  let n = Graphs.Conflict_graph.n graph in
  let engine =
    Engine.create ~seed:c.seed ?permute ~n ~adversary:(order_adversary c.adversary) ()
  in
  let builder = Result.get_ok (Core.Scenario.find Core.Scenario.default_registry c.algo) in
  builder engine ~graph ~instance:"ord" ~eat_ticks:2;
  Option.iter (fun (pid, at) -> Engine.schedule_crash engine pid ~at) c.crash;
  Engine.run engine ~until:order_horizon;
  let per_pid = Array.make n [] in
  Trace.iter (Engine.trace engine) (fun e ->
      let p = actor e.Trace.ev in
      per_pid.(p) <- Format.asprintf "%a" Trace.pp_entry e :: per_pid.(p));
  (Array.map List.rev per_pid, Engine.sent_total engine, Trace.length (Engine.trace engine))

let prop_step_order_unobservable =
  QCheck2.Test.make ~name:"permuted step order changes no process's run" ~count:200
    ~print:describe_order_case order_case_gen (fun c ->
      let pid_events, pid_sent, pid_len = run_order_case c in
      let perm_events, perm_sent, perm_len = run_order_case ~permute:c.permute c in
      Array.iteri
        (fun p evs ->
          if evs <> perm_events.(p) then
            QCheck2.Test.fail_reportf "p%d's events differ under the permuted order" p)
        pid_events;
      if pid_sent <> perm_sent then
        QCheck2.Test.fail_reportf "sent_total %d in pid order, %d permuted" pid_sent perm_sent;
      if pid_len <> perm_len then
        QCheck2.Test.fail_reportf "trace length %d in pid order, %d permuted" pid_len perm_len;
      true)

(* A hub drains batches above 64 packets, the size where the drain's
   sort switches from insertion to merge sort; under a permuted order the
   batch arrives unsorted, so both sorts are exercised. 99 senders send
   p0 five numbered messages each; p0 logs what it receives, in order. *)
let test_large_batch_order_independent () =
  let n = 100 in
  let run ?permute () =
    let engine =
      Engine.create ~seed:5L ?permute ~n ~adversary:(Adversary.async_uniform ~max_delay:3 ()) ()
    in
    for pid = 0 to n - 1 do
      let ctx = Engine.ctx engine pid in
      let sent = ref 0 in
      Engine.register engine pid
        (Component.make ~name:"hub"
           ~actions:
             [
               Component.action "send"
                 ~guard:(fun () -> pid > 0 && !sent < 5)
                 ~body:(fun () ->
                   incr sent;
                   ctx.Context.send ~dst:0 ~tag:"hub" (Msg.Int_msg !sent));
             ]
           ~on_receive:(fun ~src m ->
             let k = match m with Msg.Int_msg k -> k | _ -> -1 in
             ctx.Context.log (Trace.Note { pid; label = "got"; info = Printf.sprintf "%d.%d" src k }))
           ())
    done;
    Engine.run engine ~until:40;
    Trace.entries (Engine.trace engine)
  in
  let pid_order = run () in
  let per_tick = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let c = Option.value ~default:0 (Hashtbl.find_opt per_tick e.Trace.at) in
      Hashtbl.replace per_tick e.Trace.at (c + 1))
    pid_order;
  check "some drained batch exceeds 64 packets" true
    (Hashtbl.fold (fun _ c acc -> acc || c > 64) per_tick false);
  check_int "every message received" (99 * 5) (List.length pid_order);
  check "same receive order under a permuted step order" true (pid_order = run ~permute:7L ())

(* The permuted order really is another order: some process's events
   interleave differently in the global trace. *)
let test_permute_reorders_trace () =
  let c =
    { algo = "wf"; topology = `Ring 5; adversary = `Partial; crash = None; seed = 3L; permute = 11L }
  in
  let csv ?permute () =
    let graph = order_graph c.topology in
    let engine = Engine.create ~seed:c.seed ?permute ~n:5 ~adversary:(order_adversary c.adversary) () in
    (Result.get_ok (Core.Scenario.find Core.Scenario.default_registry c.algo))
      engine ~graph ~instance:"ord" ~eat_ticks:2;
    Engine.run engine ~until:order_horizon;
    Trace.to_csv (Engine.trace engine)
  in
  check "global interleaving differs" true (csv () <> csv ~permute:c.permute ())

(* ------------------------------------------------------------------ *)
(* Incremental counters vs brute-force scan *)

let test_in_flight_counter_matches_scan () =
  (* The O(1) per-tag counters must agree with the full-state scan at
     every observation point the monitors use (end of tick), across
     sends, deliveries, inbox drains, mid-run crashes (inbox discard) and
     deliveries to dead destinations. *)
  let n = 6 in
  let engine = build_instance ~delivery:`Wheel ~seed:77L ~n ~adversary:(Adversary.async_uniform ()) in
  Engine.schedule_crash engine 2 ~at:150;
  Engine.schedule_crash engine 4 ~at:300;
  let checked = ref 0 in
  Engine.on_tick engine (fun () ->
      List.iter
        (fun tag ->
          let fast = Engine.in_flight engine ~tag in
          let slow = Engine.in_flight_scan engine ~tag in
          if fast <> slow then
            Alcotest.failf "t=%d tag=%s: counter %d <> scan %d" (Engine.now engine) tag fast
              slow;
          incr checked)
        [ "d"; "never-sent" ]);
  Engine.run engine ~until:600;
  check_int "cross-checked every tick" (2 * 600) !checked;
  check_int "unknown tag counts zero" 0 (Engine.in_flight engine ~tag:"never-sent")

(* ------------------------------------------------------------------ *)
(* Quadratic-registration fix: many components per process *)

let test_many_components_registration () =
  (* [register] must stay linear in the number of layers (Vec append, not
     list-concat): 400 single-action components on one process, then one
     step exercises the rebuilt flat-action table and routing. *)
  let engine = Engine.create ~seed:3L ~n:1 ~adversary:(Adversary.synchronous ()) () in
  let fired = Array.make 400 false in
  let ctx = Engine.ctx engine 0 in
  for i = 0 to 399 do
    Engine.register engine 0
      (Component.make
         ~name:(Printf.sprintf "layer%d" i)
         ~actions:
           [
             Component.action "fire"
               ~guard:(fun () -> not fired.(i))
               ~body:(fun () -> fired.(i) <- true);
           ]
         ~on_receive:(fun ~src:_ _ -> ())
         ())
  done;
  ignore ctx;
  Engine.run engine ~until:400;
  check "every layer's action eventually ran (weak fairness over 400 layers)" true
    (Array.for_all Fun.id fired)

(* ------------------------------------------------------------------ *)
(* Campaign jobs-invariance over the new engine core *)

let test_campaign_jobs_invariance_post_wheel () =
  (* End-to-end re-check of the parallel-determinism contract on top of
     the timing-wheel engine: canonical campaign summaries are
     byte-identical at -j 1/2/7. *)
  let summary jobs =
    let result =
      Check.Campaign.run ~runs:20 ~max_horizon:2500 ~jobs
        ~registry:Check.Runner.default_registry ~root_seed:0x5CA1EL ()
    in
    Obs.Json.to_string_pretty
      (Obs.Report.strip_wall_clock (Check.Campaign.summary ~cmd:"fuzz" result))
  in
  let reference = summary 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d matches jobs=1" jobs)
        reference (summary jobs))
    [ 2; 7 ]

let () =
  Alcotest.run "scale"
    [
      ( "engine",
        [
          Alcotest.test_case "100k-process same-tick flood is stack-safe" `Quick
            test_flood_100k_stack_safe;
          Alcotest.test_case "wheel and reference delivery traces identical" `Quick
            test_wheel_matches_reference;
          Alcotest.test_case "overflow packets delivered exactly once" `Quick
            test_overflow_delivers_exactly_once;
          Alcotest.test_case "in-flight counters match brute-force scan" `Quick
            test_in_flight_counter_matches_scan;
          Alcotest.test_case "400-layer registration and fairness" `Quick
            test_many_components_registration;
          QCheck_alcotest.to_alcotest prop_step_order_unobservable;
          Alcotest.test_case "hub batches above 64 are order-independent" `Quick
            test_large_batch_order_independent;
          Alcotest.test_case "permuted order reorders the global trace" `Quick
            test_permute_reorders_trace;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs-invariance at -j 1/2/7" `Quick
            test_campaign_jobs_invariance_post_wheel;
        ] );
    ]

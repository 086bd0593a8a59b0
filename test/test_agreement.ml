(* Tests for the agreement layer: consensus and stable leader election over
   ◇P — including on top of the detector extracted from black-box dining. *)

open Dsim

let check = Alcotest.(check bool)
let holds (v : Detectors.Properties.verdict) = v.Detectors.Properties.holds

(* ------------------------------------------------------------------ *)
(* Consensus over the native heartbeat ◇P *)

let consensus_run ?(seed = 71L) ?(adversary = Adversary.partial_sync ~gst:300 ())
    ?(horizon = 8000) ?(crash = []) ?windows ~n ~inputs () =
  let engine = Engine.create ~seed ~n ~adversary () in
  let suspects =
    Core.Scenario.evp_suspects engine ~n ~windows:(Option.value ~default:[] windows)
  in
  let instances =
    List.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let c =
          Agreement.Consensus.create ctx ~members:(List.init n Fun.id)
            ~suspects:(suspects pid) ()
        in
        Engine.register engine pid c.Agreement.Consensus.component;
        c.Agreement.Consensus.propose (List.nth inputs pid);
        c)
  in
  List.iter (fun (pid, at) -> Engine.schedule_crash engine pid ~at) crash;
  Engine.run engine ~until:horizon;
  (engine, instances)

let test_consensus_all_correct () =
  let engine, instances = consensus_run ~n:3 ~inputs:[ 10; 20; 30 ] () in
  List.iteri
    (fun pid c ->
      match c.Agreement.Consensus.decided () with
      | Some v ->
          check (Printf.sprintf "p%d decided an input" pid) true (List.mem v [ 10; 20; 30 ])
      | None -> Alcotest.failf "p%d never decided" pid)
    instances;
  check "agreement" true (holds (Agreement.Consensus.agreement (Engine.trace engine)))

let test_consensus_coordinator_crash () =
  (* The round-0 coordinator (p0) dies before anyone can decide: rotation +
     suspicion drive later rounds to success. *)
  let engine, instances =
    consensus_run ~seed:72L ~n:5 ~inputs:[ 1; 2; 3; 4; 5 ] ~crash:[ (0, 5) ] ~horizon:10000 ()
  in
  List.iteri
    (fun pid c ->
      if pid <> 0 then
        check (Printf.sprintf "p%d decided" pid) true (c.Agreement.Consensus.decided () <> None))
    instances;
  check "agreement" true (holds (Agreement.Consensus.agreement (Engine.trace engine)))

let test_consensus_two_crashes_of_five () =
  let engine, instances =
    consensus_run ~seed:73L ~n:5 ~inputs:[ 7; 7; 9; 9; 9 ] ~crash:[ (1, 40); (3, 200) ]
      ~horizon:12000 ()
  in
  List.iteri
    (fun pid c ->
      if pid <> 1 && pid <> 3 then
        check (Printf.sprintf "p%d decided" pid) true (c.Agreement.Consensus.decided () <> None))
    instances;
  check "agreement" true (holds (Agreement.Consensus.agreement (Engine.trace engine)))

let test_consensus_survives_detector_mistakes () =
  (* Wrongful suspicions of live coordinators cost rounds but never safety. *)
  let windows =
    [
      (1, [ { Detectors.Injected.from_ = 0; until = 600; target = 0 } ]);
      (2, [ { Detectors.Injected.from_ = 0; until = 500; target = 0 } ]);
    ]
  in
  let engine, instances =
    consensus_run ~seed:74L ~n:3 ~inputs:[ 5; 6; 7 ] ~windows ~horizon:10000 ()
  in
  List.iteri
    (fun pid c ->
      check (Printf.sprintf "p%d decided" pid) true (c.Agreement.Consensus.decided () <> None))
    instances;
  check "agreement" true (holds (Agreement.Consensus.agreement (Engine.trace engine)))

let test_consensus_validity_unanimous () =
  let _, instances = consensus_run ~seed:75L ~n:3 ~inputs:[ 42; 42; 42 ] () in
  List.iter
    (fun c -> Alcotest.(check (option int)) "decided 42" (Some 42) (c.Agreement.Consensus.decided ()))
    instances

let test_consensus_seed_sweep () =
  List.iter
    (fun seed ->
      let engine, instances =
        consensus_run ~seed:(Int64.of_int seed) ~n:4 ~inputs:[ 1; 2; 3; 4 ]
          ~crash:(if seed mod 2 = 0 then [ (seed mod 4, 100 + (seed * 37 mod 1000)) ] else [])
          ~horizon:12000 ()
      in
      check
        (Printf.sprintf "seed %d: agreement" seed)
        true
        (holds (Agreement.Consensus.agreement (Engine.trace engine)));
      List.iteri
        (fun pid c ->
          if Engine.is_live engine pid && c.Agreement.Consensus.decided () = None then
            Alcotest.failf "seed %d: correct p%d undecided" seed pid)
        instances)
    [ 301; 302; 303; 304; 305; 306 ]

let test_consensus_trace_pinned () =
  (* Regression for the Hashtbl-order bug class (simlint D003): coordinator
     actions iterate rounds in sorted key order, so Cs_propose/Cs_decide
     emission order is a function of protocol state only. Two runs from one
     seed must be bit-identical, and the digest is pinned so a reintroduced
     order dependence that happens to be stable within one binary still
     shows up as a diff when the table layout shifts. *)
  let run () =
    let engine, _ =
      consensus_run ~seed:77L ~n:5 ~inputs:[ 3; 1; 4; 1; 5 ] ~crash:[ (0, 50) ]
        ~horizon:10000 ()
    in
    Trace.to_csv (Engine.trace engine)
  in
  let a = run () in
  check "replay is bit-identical" true (a = run ());
  Alcotest.(check string)
    "pinned trace digest for seed 77" "2999fda78f04c58fb687592f595bb2b1"
    (Digest.to_hex (Digest.string a))

(* ------------------------------------------------------------------ *)
(* Leader election *)

let leader_run ?(seed = 81L) ?(horizon = 6000) ?(crash = []) ~n () =
  let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:300 ()) () in
  let suspects = Core.Scenario.evp_suspects engine ~n ~windows:[] in
  let leaders =
    List.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let l =
          Agreement.Leader.create ctx ~members:(List.init n Fun.id) ~suspects:(suspects pid) ()
        in
        Engine.register engine pid l.Agreement.Leader.component;
        l)
  in
  List.iter (fun (pid, at) -> Engine.schedule_crash engine pid ~at) crash;
  Engine.run engine ~until:horizon;
  (engine, leaders)

let test_leader_stable_no_crash () =
  let engine, leaders = leader_run ~n:4 () in
  List.iteri
    (fun pid l ->
      Alcotest.(check int) (Printf.sprintf "p%d elects p0" pid) 0 (l.Agreement.Leader.leader ());
      ignore engine)
    leaders

let test_leader_fails_over () =
  let engine, leaders = leader_run ~seed:82L ~n:4 ~crash:[ (0, 1000); (1, 2500) ] () in
  List.iteri
    (fun pid l ->
      if pid >= 2 then
        Alcotest.(check int)
          (Printf.sprintf "p%d elects p2 after fail-overs" pid)
          2
          (l.Agreement.Leader.leader ()))
    leaders;
  (* Stability: the last change happened shortly after the last crash. *)
  List.iter
    (fun pid ->
      match Agreement.Leader.stabilisation_time (Engine.trace engine) ~pid with
      | Some t -> check (Printf.sprintf "p%d stabilised" pid) true (t < 3500)
      | None -> Alcotest.failf "p%d never elected" pid)
    [ 2; 3 ]

let test_leader_changes_are_finite () =
  let engine, _ = leader_run ~seed:83L ~n:3 ~horizon:10000 () in
  List.iter
    (fun pid ->
      let changes =
        List.length (Trace.notes ~pid ~label:"leader" (Engine.trace engine))
      in
      check (Printf.sprintf "p%d: few leader changes" pid) true (changes <= 5))
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* End-to-end: consensus over the detector extracted from dining *)

let test_consensus_over_extracted_detector () =
  let n = 3 in
  let run = Core.Scenario.wf_extraction ~seed:91L ~with_lemma_monitors:false ~n () in
  let engine = run.Core.Scenario.engine in
  let instances =
    List.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let oracle = Reduction.Extract.oracle run.Core.Scenario.extract pid in
        let c =
          Agreement.Consensus.create ctx ~members:(List.init n Fun.id)
            ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
            ()
        in
        Engine.register engine pid c.Agreement.Consensus.component;
        c.Agreement.Consensus.propose (100 + pid);
        c)
  in
  Engine.schedule_crash engine 2 ~at:3000;
  Engine.run engine ~until:30000;
  List.iteri
    (fun pid c ->
      if pid <> 2 then
        check
          (Printf.sprintf "p%d decided over the extracted ◇P" pid)
          true
          (c.Agreement.Consensus.decided () <> None))
    instances;
  check "agreement" true (holds (Agreement.Consensus.agreement (Engine.trace engine)))

let test_leader_over_extracted_detector () =
  let n = 3 in
  let run = Core.Scenario.wf_extraction ~seed:92L ~with_lemma_monitors:false ~n () in
  let engine = run.Core.Scenario.engine in
  let leaders =
    List.init n (fun pid ->
        let ctx = Engine.ctx engine pid in
        let oracle = Reduction.Extract.oracle run.Core.Scenario.extract pid in
        let l =
          Agreement.Leader.create ctx ~members:(List.init n Fun.id)
            ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
            ()
        in
        Engine.register engine pid l.Agreement.Leader.component;
        l)
  in
  Engine.schedule_crash engine 0 ~at:4000;
  Engine.run engine ~until:30000;
  List.iteri
    (fun pid l ->
      if pid <> 0 then
        Alcotest.(check int)
          (Printf.sprintf "p%d elects p1 over the extracted ◇P" pid)
          1
          (l.Agreement.Leader.leader ()))
    leaders

let () =
  Alcotest.run "agreement"
    [
      ( "consensus",
        [
          Alcotest.test_case "all correct" `Quick test_consensus_all_correct;
          Alcotest.test_case "coordinator crash" `Quick test_consensus_coordinator_crash;
          Alcotest.test_case "two crashes of five" `Quick test_consensus_two_crashes_of_five;
          Alcotest.test_case "survives detector mistakes" `Quick
            test_consensus_survives_detector_mistakes;
          Alcotest.test_case "validity (unanimous)" `Quick test_consensus_validity_unanimous;
          Alcotest.test_case "seed sweep" `Slow test_consensus_seed_sweep;
          Alcotest.test_case "pinned trace (D003 regression)" `Quick
            test_consensus_trace_pinned;
        ] );
      ( "leader",
        [
          Alcotest.test_case "stable without crashes" `Quick test_leader_stable_no_crash;
          Alcotest.test_case "fails over" `Quick test_leader_fails_over;
          Alcotest.test_case "finitely many changes" `Quick test_leader_changes_are_finite;
        ] );
      ( "end-to-end over extracted ◇P",
        [
          Alcotest.test_case "consensus" `Quick test_consensus_over_extracted_detector;
          Alcotest.test_case "leader election" `Quick test_leader_over_extracted_detector;
        ] );
    ]

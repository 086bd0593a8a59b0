(* Experiment harness: one entry per artifact of the paper (see DESIGN.md's
   per-experiment index). The paper is a theory result, so each "table"
   regenerates the *shape* of a theorem, lemma, figure or narrated claim. *)

open Dsim

let holds (v : Detectors.Properties.verdict) = v.Detectors.Properties.holds

let extracted_flips engine ~owner ~target =
  Trace.suspicion_flips (Engine.trace engine) ~detector:"extracted" ~owner ~target

(* ------------------------------------------------------------------ *)
(* F1 — Figure 1: witness/subject hand-off in the exclusive suffix. *)

let f1 () =
  Util.section "F1  Figure 1: witness and subject threads in the exclusive suffix";
  let run = Core.Scenario.wf_extraction ~seed:101L ~n:2 () in
  let engine = run.Core.Scenario.engine in
  Engine.run engine ~until:16000;
  let pair = Reduction.Extract.pair run.Core.Scenario.extract ~watcher:0 ~subject:1 in
  let horizon = Engine.now engine in
  (* ASCII timeline: one bucket per [scale] ticks in a stable window. *)
  let w0, w1 = (14000, 15000) in
  let scale = 10 in
  let row label intervals =
    let buckets = (w1 - w0) / scale in
    let cells =
      String.init buckets (fun b ->
          let t0 = w0 + (b * scale) and t1 = w0 + ((b + 1) * scale) in
          let covered =
            List.exists (fun (a, bnd) -> a < t1 && bnd > t0) intervals
          in
          if covered then '#' else '.')
    in
    Printf.printf "  %-6s %s\n" label cells
  in
  Printf.printf "\n  eating sessions, t in [%d, %d), %d ticks per column:\n\n" w0 w1 scale;
  let intervals inst pid = Trace.eating_intervals (Engine.trace engine) ~instance:inst ~pid ~horizon in
  row "p.w0" (intervals pair.Reduction.Pair.dx_instances.(0) 0);
  row "q.s0" (intervals pair.Reduction.Pair.dx_instances.(0) 1);
  row "p.w1" (intervals pair.Reduction.Pair.dx_instances.(1) 0);
  row "q.s1" (intervals pair.Reduction.Pair.dx_instances.(1) 1);
  (* The gray regions of Figure 1: some subject is always eating. *)
  let l8 =
    List.find
      (fun r -> r.Reduction.Lemmas.lemma = "L8")
      (Reduction.Lemmas.online_reports (snd (List.hd run.Core.Scenario.onlines)))
  in
  Printf.printf
    "\n  hand-off overlap (Lemma 8): some subject eating at every tick of the suffix\n\
    \  %s   [%s]\n"
    l8.Reduction.Lemmas.info
    (Util.ok_fail (Reduction.Lemmas.ok l8));
  let l12 =
    List.find
      (fun r -> r.Reduction.Lemmas.lemma = "L12")
      (Reduction.Lemmas.trace_reports ~engine ~pair)
  in
  Printf.printf "  witness alternation (Lemma 12): %s   [%s]\n" l12.Reduction.Lemmas.info
    (Util.ok_fail (Reduction.Lemmas.ok l12))

(* ------------------------------------------------------------------ *)
(* T1 — Theorem 1: strong completeness; crash-detection latency. *)

let t1 () =
  Util.section "T1  Theorem 1: strong completeness of the extracted detector";
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun crash_at ->
          let run = Core.Scenario.wf_extraction ~seed:202L ~with_lemma_monitors:false ~n () in
          let engine = run.Core.Scenario.engine in
          let target = n - 1 in
          Engine.schedule_crash engine target ~at:crash_at;
          Engine.run engine ~until:(crash_at + 16000);
          let trace = Engine.trace engine in
          let verdict =
            Detectors.Properties.strong_completeness trace ~detector:"extracted" ~n
              ~initially_suspected:true
          in
          let latency detector initially =
            let worst = ref 0 and okc = ref true in
            for owner = 0 to n - 2 do
              match
                Detectors.Properties.detection_time trace ~detector ~owner ~target
                  ~initially_suspected:initially
              with
              | Some t -> worst := max !worst (t - crash_at)
              | None -> okc := false
            done;
            if !okc then Some !worst else None
          in
          rows :=
            [
              string_of_int n;
              string_of_int crash_at;
              Util.yes_no (holds verdict);
              Util.opt_time (latency "extracted" true);
              Util.opt_time (latency "evp" false);
            ]
            :: !rows)
        [ 1000; 4000; 8000 ])
    [ 2; 3 ];
  Util.table
    ~header:
      [ "n"; "crash at"; "permanent suspicion"; "extracted latency"; "native evp latency" ]
    (List.rev !rows);
  print_endline
    "  Shape: every correct monitor permanently suspects the crashed process; the\n\
    \  extracted detector trails the native heartbeat detector by the time the\n\
    \  witness threads need to eat past the dead subject (wait-freedom at work)."

(* ------------------------------------------------------------------ *)
(* T2 — Theorem 2: eventual strong accuracy. *)

let t2 () =
  Util.section "T2  Theorem 2: eventual strong accuracy of the extracted detector";
  let rows = ref [] in
  List.iter
    (fun (gst, label_windows, windows) ->
      let run =
        Core.Scenario.wf_extraction ~seed:303L
          ~adversary:(Adversary.partial_sync ~gst ())
          ~windows ~with_lemma_monitors:false ~n:2 ()
      in
      let engine = run.Core.Scenario.engine in
      Engine.run engine ~until:30000;
      let trace = Engine.trace engine in
      let verdict =
        Detectors.Properties.eventual_strong_accuracy trace ~detector:"extracted" ~n:2
          ~initially_suspected:true
      in
      let conv detector =
        Detectors.Properties.accuracy_convergence_time trace ~detector ~n:2
      in
      let mistakes =
        Detectors.Properties.total_false_suspicions trace ~detector:"extracted" ~n:2
      in
      rows :=
        [
          string_of_int gst;
          label_windows;
          Util.yes_no (holds verdict);
          string_of_int mistakes;
          string_of_int (conv "extracted");
          string_of_int (conv "evp");
        ]
        :: !rows)
    [
      (200, "none", []);
      (800, "none", []);
      (2000, "none", []);
      ( 800,
        "forced prefix mistakes",
        [
          (0, [ { Detectors.Injected.from_ = 900; until = 1400; target = 1 } ]);
          (1, [ { Detectors.Injected.from_ = 300; until = 700; target = 0 } ]);
        ] );
    ];
  Util.table
    ~header:
      [
        "GST"; "injected oracle mistakes"; "accuracy"; "false suspicions";
        "extracted converged by"; "native evp converged by";
      ]
    (List.rev !rows);
  print_endline
    "  Shape: wrongful suspicions are finite and stop shortly after the underlying\n\
    \  system stabilises, whatever the GST and despite adversarial oracle mistakes."

(* ------------------------------------------------------------------ *)
(* L — Lemmas 1-12 as machine-checked run-time invariants. *)

let lemmas () =
  Util.section "L   Lemmas 1-12: machine-checked proof obligations";
  let totals : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let bump lemma ok =
    let runs, bad = Option.value ~default:(0, 0) (Hashtbl.find_opt totals lemma) in
    Hashtbl.replace totals lemma (runs + 1, if ok then bad else bad + 1)
  in
  let scenarios =
    List.concat_map
      (fun seed ->
        [ (seed, None, Adversary.partial_sync ~gst:500 ());
          (seed, Some (2000 + (seed * 997 mod 3000)), Adversary.partial_sync ~gst:500 ());
          (seed, None, Adversary.bursty ~gst:900 ()) ])
      [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun (seed, crash, adversary) ->
      let run =
        Core.Scenario.wf_extraction ~seed:(Int64.of_int (1000 + seed)) ~adversary ~n:2 ()
      in
      let engine = run.Core.Scenario.engine in
      (match crash with Some at -> Engine.schedule_crash engine 1 ~at | None -> ());
      Engine.run engine ~until:22000;
      List.iter
        (fun (pair, online) ->
          List.iter
            (fun r -> bump r.Reduction.Lemmas.lemma (Reduction.Lemmas.ok r))
            (Reduction.Lemmas.online_reports online
            @ Reduction.Lemmas.trace_reports ~engine ~pair))
        run.Core.Scenario.onlines)
    scenarios;
  let order = [ "L1"; "L2"; "L3"; "L4"; "L5"; "L6"; "L7"; "L8"; "L9"; "L11"; "L12" ] in
  Util.table ~header:[ "lemma"; "checked (pair x run)"; "violations" ]
    (List.map
       (fun l ->
         let runs, bad = Option.value ~default:(0, 0) (Hashtbl.find_opt totals l) in
         [ l; string_of_int runs; string_of_int bad ])
       order);
  Printf.printf "  %d runs (seeds x {correct, crash} x {partial-sync, bursty}).\n"
    (List.length scenarios)

(* ------------------------------------------------------------------ *)
(* V1 — Section 3: the [8] construction is not black-box; ours is. *)

let v1 () =
  Util.section "V1  Section 3: vulnerability of the contention-manager construction [8]";
  Util.subsection
    "scenario: correct subject enters its critical section during the oracle's\n\
     mistake-prone prefix and never exits ([12]-style box: exclusive suffix void)";
  let rows = ref [] in
  List.iter
    (fun horizon ->
      let count mode =
        let engine, suspected = Core.Scenario.vulnerability ~mode () in
        Engine.run engine ~until:horizon;
        let det = match mode with `Flawed_cm -> "flawed-cm" | `Our_reduction -> "extracted" in
        let flips = Trace.suspicion_flips (Engine.trace engine) ~detector:det ~owner:1 ~target:0 in
        let late = List.length (List.filter (fun (t, _) -> t > horizon - (horizon / 5)) flips) in
        (List.length flips, late, suspected ())
      in
      let fc, fl, _ = count `Flawed_cm in
      let oc, ol, os = count `Our_reduction in
      rows :=
        [
          string_of_int horizon;
          string_of_int fc;
          string_of_int fl;
          string_of_int oc;
          string_of_int ol;
          (if os then "suspects" else "trusts");
        ]
        :: !rows)
    [ 5000; 10000; 20000; 40000 ];
  Util.table
    ~header:
      [
        "horizon"; "[8] flips about correct q"; "[8] flips in last 20%"; "our flips";
        "our flips in last 20%"; "our final";
      ]
    (List.rev !rows);
  print_endline
    "  Shape: the [8] construction keeps suspecting the correct q (flips grow\n\
    \  linearly with the horizon: eventual strong accuracy is violated); the\n\
    \  paper's two-instance reduction converges with finitely many flips.";
  Util.subsection
    "ablation: one instance, no hand-off (subject exits, but a slow subject is\n\
     legally overtaken forever: fairness is not part of WF-◇WX)";
  let build mode =
    let n = 2 in
    let adversary =
      Adversary.handicap ~slow:[ 1 ] ~factor:0.12 (Adversary.partial_sync ~gst:400 ())
    in
    let engine = Engine.create ~seed:5L ~n ~adversary () in
    let suspects = Core.Scenario.evp_suspects engine ~n ~windows:[] in
    let dining = Reduction.Pair.wf_ewx_factory ~n ~suspects in
    let det =
      match mode with
      | `Single ->
          ignore (Reduction.Single_instance.create ~engine ~dining ~watcher:0 ~subject:1 ());
          "single-inst"
      | `Pair ->
          ignore (Reduction.Pair.create ~engine ~dining ~watcher:0 ~subject:1 ());
          "extracted"
    in
    Engine.run engine ~until:30000;
    let flips = Trace.suspicion_flips (Engine.trace engine) ~detector:det ~owner:0 ~target:1 in
    let late = List.length (List.filter (fun (t, _) -> t > 20000) flips) in
    (List.length flips, late)
  in
  let sc, sl = build `Single in
  let pc, pl = build `Pair in
  let verdict late = if late = 0 then "converged" else "still flipping (accuracy FAILS)" in
  Util.table
    ~header:
      [ "construction"; "flips about correct-but-slow q"; "flips in last third"; "verdict" ]
    [
      [ "single instance"; string_of_int sc; string_of_int sl; verdict sl ];
      [ "two instances + hand-off"; string_of_int pc; string_of_int pl; verdict pl ];
    ]

(* ------------------------------------------------------------------ *)
(* S9 — Section 9: the same reduction over perpetual WX extracts T. *)

let post_trust_revocations trace ~detector ~owner ~target =
  let flips = Trace.suspicion_flips trace ~detector ~owner ~target in
  let crash = Types.Pidmap.find_opt target (Trace.crash_times trace) in
  let rec scan trusted_once acc = function
    | [] -> acc
    | (t, v) :: rest ->
        let live = match crash with None -> true | Some tc -> t < tc in
        let acc = if v && trusted_once && live then acc + 1 else acc in
        scan (trusted_once || not v) acc rest
  in
  scan false 0 flips

let s9 () =
  Util.section "S9  Section 9: extraction over perpetual weak exclusion yields T";
  let rows = ref [] in
  let add label engine crashed =
    let trace = Engine.trace engine in
    let ta =
      Detectors.Properties.trusting_accuracy trace ~detector:"extracted" ~n:2
        ~initially_suspected:true
    in
    let sc =
      Detectors.Properties.strong_completeness trace ~detector:"extracted" ~n:2
        ~initially_suspected:true
    in
    let rev = post_trust_revocations trace ~detector:"extracted" ~owner:0 ~target:1 in
    rows :=
      [
        label;
        (if crashed then "crash @6000" else "correct");
        string_of_int rev;
        Util.yes_no (holds ta);
        Util.yes_no (holds sc);
      ]
      :: !rows
  in
  List.iter
    (fun crash ->
      let run = Core.Scenario.ftme_extraction ~seed:404L ~n:2 () in
      if crash then Engine.schedule_crash run.Core.Scenario.engine 1 ~at:6000;
      Engine.run run.Core.Scenario.engine ~until:25000;
      add "perpetual WX (FTME box)" run.Core.Scenario.engine crash)
    [ false; true ];
  (* Contrast: over a ◇WX box, a mid-run oracle mistake inside the black box
     lets the witness eat twice between subject meals — a trust revocation of
     a live process. The extracted detector is ◇P but NOT T. *)
  let windows =
    [ (0, [ { Detectors.Injected.from_ = 5000; until = 5600; target = 1 } ]) ]
  in
  let run = Core.Scenario.wf_extraction ~seed:405L ~windows ~with_lemma_monitors:false ~n:2 () in
  Engine.run run.Core.Scenario.engine ~until:25000;
  add "eventual WX (WF-◇WX box)" run.Core.Scenario.engine false;
  Util.table
    ~header:
      [
        "black box"; "fault pattern"; "post-trust revocations of live q";
        "trusting accuracy"; "strong completeness";
      ]
    (List.rev !rows);
  print_endline
    "  Shape: over a wait-free *perpetual* WX box the extracted oracle never\n\
    \  revokes trust in a live process (= the trusting detector T); over a ◇WX\n\
    \  box revocations can happen (finitely often): the extraction is only ◇P."

(* ------------------------------------------------------------------ *)
(* K1 — Section 8: composing the extraction with eventually-fair dining. *)

let k1 () =
  Util.section "K1  Section 8: extracted ◇P drives eventually 2-fair dining ([13])";
  let rows = ref [] in
  List.iter
    (fun (algo, label, crash) ->
      let n = 3 in
      let run = Core.Scenario.wf_extraction ~seed:505L ~with_lemma_monitors:false ~n () in
      let engine = run.Core.Scenario.engine in
      (* Layer: the paper's two-step construction — extract ◇P from the
         black box, feed it to the k-fair dining algorithm. *)
      let graph = Graphs.Conflict_graph.clique ~n in
      Core.Scenario.with_diners
        (fun ctx pid ->
          let oracle = Reduction.Extract.oracle run.Core.Scenario.extract pid in
          let suspects () = oracle.Detectors.Oracle.suspects () in
          match algo with
          | `Kfair ->
              let c, h, _ = Dining.Kfair.component ctx ~instance:"kf" ~graph ~suspects () in
              (c, h)
          | `Wf ->
              let c, h, _ = Dining.Wf_ewx.component ctx ~instance:"kf" ~graph ~suspects () in
              (c, h))
        engine ~graph ~eat_ticks:3;
      (match crash with Some at -> Engine.schedule_crash engine 2 ~at | None -> ());
      Engine.run engine ~until:30000;
      let trace = Engine.trace engine in
      let r = Dining.Monitor.finish (Trace.Phases.of_trace trace ~instance:"kf") ~horizon:30000 in
      let k = Dining.Monitor.Run.max_overtaking r ~graph ~after:15000 in
      let wf = Dining.Monitor.Run.wait_freedom r ~n ~slack:6000 in
      let wx = Dining.Monitor.Run.eventual_weak_exclusion r ~graph ~suffix_from:15000 in
      rows :=
        [
          label;
          string_of_int k;
          Util.yes_no (k <= 2);
          Util.yes_no (holds wf);
          Util.yes_no (holds wx);
        ]
        :: !rows)
    [
      (`Kfair, "k-fair scheduler, all correct", None);
      (`Kfair, "k-fair scheduler, crash @5000", Some 5000);
      (`Wf, "plain wf-◇wx (comparison), all correct", None);
    ];
  Util.table
    ~header:
      [
        "scheduler / fault pattern"; "max suffix overtaking k"; "k <= 2"; "wait-free";
        "exclusive suffix";
      ]
    (List.rev !rows);
  print_endline
    "  Shape: any WF-◇WX solution can be upgraded to eventual 2-fairness by\n\
    \  extracting ◇P (this paper) and running the [13]-style fair scheduler on it."

(* ------------------------------------------------------------------ *)
(* A1 — Section 2: WSN duty-cycle scheduling. *)

let a1 () =
  Util.section "A1  Section 2: WSN duty-cycle scheduling (on duty = eating)";
  let config = Wsn.Model.default_config in
  let horizon = 9000 in
  let run scheduler =
    let n = config.Wsn.Model.areas * config.Wsn.Model.nodes_per_area in
    let engine =
      Engine.create ~seed:606L ~n ~adversary:(Adversary.partial_sync ~gst:300 ()) ()
    in
    let model = Wsn.Model.setup ~engine ~config ~scheduler () in
    Engine.run engine ~until:horizon;
    model
  in
  let all_on = run Wsn.Model.All_on in
  let dining = run Wsn.Model.Dining in
  let stats model =
    let series = Wsn.Model.coverage_series model ~sample_every:25 ~horizon in
    let live = List.filter (fun s -> s.Wsn.Model.alive > 0) series in
    let avg f =
      if live = [] then 0.0
      else
        float_of_int (List.fold_left (fun acc s -> acc + f s) 0 live)
        /. float_of_int (List.length live)
    in
    ( (match Wsn.Model.lifetime model with
      | Some t -> string_of_int t
      | None -> Printf.sprintf ">%d" horizon),
      Printf.sprintf "%.2f / %d" (avg (fun s -> s.Wsn.Model.covered)) config.Wsn.Model.areas,
      Printf.sprintf "%.2f" (avg (fun s -> s.Wsn.Model.redundant)) )
  in
  let l1, c1, r1 = stats all_on in
  let l2, c2, r2 = stats dining in
  Util.table
    ~header:[ "scheduler"; "network lifetime"; "avg areas covered (while alive)"; "avg redundant areas" ]
    [
      [ "all-on baseline"; l1; c1; r1 ];
      [ "WF-◇WX dining"; l2; c2; r2 ];
    ];
  print_endline
    "  Shape: duty cycling sacrifices a little instantaneous coverage and all\n\
    \  redundancy (after ◇P converges) for a several-fold network lifetime;\n\
    \  redundant duty during the prefix is a performance mistake, not a safety one."

(* ------------------------------------------------------------------ *)
(* A2 — Sections 2-3: contention manager boosting obstruction freedom. *)

let a2 () =
  Util.section "A2  Sections 2-3: contention manager boosts OF transactions to wait-free";
  let horizon = 12000 in
  let run with_cm =
    let run = Core.Scenario.ctm ~seed:707L ~compute_ticks:6 ~clients:4 ~with_cm () in
    Engine.run run.Core.Scenario.engine ~until:horizon;
    List.map snd run.Core.Scenario.clients
  in
  let summarize stats =
    let tot f = List.fold_left (fun acc st -> acc + f st) 0 stats in
    let commits = tot (fun (st : Ctm.Client.stats) -> st.Ctm.Client.commits) in
    let aborts = tot (fun st -> st.Ctm.Client.aborts) in
    let late_aborts =
      (* aborts are not timestamped; approximate with commits in last third
         vs overall success trend via late commit share *)
      tot (fun st ->
          List.length
            (List.filter (fun t -> t > horizon - (horizon / 3)) st.Ctm.Client.commit_times))
    in
    let min_commits =
      List.fold_left (fun acc (st : Ctm.Client.stats) -> min acc st.Ctm.Client.commits) max_int
        stats
    in
    (commits, aborts, late_aborts, min_commits)
  in
  let c1, a1_, l1, m1 = summarize (run false) in
  let c2, a2_, l2, m2 = summarize (run true) in
  Util.table
    ~header:
      [
        "configuration"; "commits"; "aborts"; "success rate"; "commits in last third";
        "min commits per client";
      ]
    [
      [
        "no contention manager"; string_of_int c1; string_of_int a1_;
        Util.pct c1 (c1 + a1_); string_of_int l1; string_of_int m1;
      ];
      [
        "WF-◇WX contention manager"; string_of_int c2; string_of_int a2_;
        Util.pct c2 (c2 + a2_); string_of_int l2; string_of_int m2;
      ];
    ];
  print_endline
    "  Shape: raw obstruction freedom wastes most attempts under contention; the\n\
    \  manager serialises the suffix so every client commits forever (wait-free)."

(* ------------------------------------------------------------------ *)
(* SW — multi-seed statistical sweep of the headline properties. *)

let sweep () =
  Util.section "SW  Multi-seed sweep: the theorems across 10 random schedules";
  let seeds = Core.Batch.seeds 10 in
  (* Theorem 1 latency distribution. *)
  let latencies =
    Core.Batch.sweep ~seeds (fun ~seed ->
        let run = Core.Scenario.wf_extraction ~seed ~with_lemma_monitors:false ~n:2 () in
        let engine = run.Core.Scenario.engine in
        Engine.schedule_crash engine 1 ~at:3000;
        Engine.run engine ~until:20000;
        match
          Detectors.Properties.detection_time (Engine.trace engine) ~detector:"extracted"
            ~owner:0 ~target:1 ~initially_suspected:true
        with
        | Some t -> float_of_int (t - 3000)
        | None -> Float.nan)
  in
  let detected = List.filter (fun l -> not (Float.is_nan l)) latencies in
  (* Theorem 2 convergence distribution. *)
  let convergences =
    Core.Batch.sweep ~seeds (fun ~seed ->
        let run = Core.Scenario.wf_extraction ~seed ~with_lemma_monitors:false ~n:2 () in
        let engine = run.Core.Scenario.engine in
        Engine.run engine ~until:20000;
        float_of_int
          (Detectors.Properties.accuracy_convergence_time (Engine.trace engine)
             ~detector:"extracted" ~n:2))
  in
  let evp_held, evp_total =
    Core.Batch.count_where ~seeds (fun ~seed ->
        let run = Core.Scenario.wf_extraction ~seed ~with_lemma_monitors:false ~n:2 () in
        let engine = run.Core.Scenario.engine in
        if Int64.to_int seed mod 2 = 0 then Engine.schedule_crash engine 1 ~at:4000;
        Engine.run engine ~until:22000;
        (Detectors.Properties.eventually_perfect (Engine.trace engine) ~detector:"extracted"
           ~n:2 ~initially_suspected:true)
          .Detectors.Properties.holds)
  in
  let t_held, t_total =
    Core.Batch.count_where ~seeds (fun ~seed ->
        let run = Core.Scenario.ftme_extraction ~seed ~n:2 () in
        let engine = run.Core.Scenario.engine in
        if Int64.to_int seed mod 2 = 1 then Engine.schedule_crash engine 1 ~at:4000;
        Engine.run engine ~until:22000;
        let trace = Engine.trace engine in
        (Detectors.Properties.trusting_accuracy trace ~detector:"extracted" ~n:2
           ~initially_suspected:true)
          .Detectors.Properties.holds
        && (Detectors.Properties.strong_completeness trace ~detector:"extracted" ~n:2
              ~initially_suspected:true)
             .Detectors.Properties.holds)
  in
  Util.table
    ~header:[ "property"; "result over 10 seeds" ]
    [
      [ "crash detected permanently"; Printf.sprintf "%d/10 runs" (List.length detected) ];
      [
        "detection latency (ticks)";
        (if detected = [] then "-" else Core.Batch.Stats.summary (Core.Batch.Stats.of_floats detected));
      ];
      [
        "accuracy convergence time (ticks)";
        Core.Batch.Stats.summary (Core.Batch.Stats.of_floats convergences);
      ];
      [ "extracted detector is ◇P"; Printf.sprintf "%d/%d runs" evp_held evp_total ];
      [ "T properties over FTME box"; Printf.sprintf "%d/%d runs" t_held t_total ];
    ]

(* ------------------------------------------------------------------ *)
(* M1 — engineering numbers: message cost of the reduction. *)

let m1 () =
  Util.section "M1  Engineering: message and scheduling cost of the extraction";
  let rows = ref [] in
  List.iter
    (fun n ->
      let run = Core.Scenario.wf_extraction ~seed:808L ~with_lemma_monitors:false ~n () in
      let engine = run.Core.Scenario.engine in
      Engine.run engine ~until:10000;
      let trace = Engine.trace engine in
      let pair = List.hd run.Core.Scenario.extract.Reduction.Extract.pairs in
      let judgments =
        Dining.Monitor.eat_count trace ~instance:pair.Reduction.Pair.dx_instances.(0)
          ~pid:pair.Reduction.Pair.watcher
        + Dining.Monitor.eat_count trace ~instance:pair.Reduction.Pair.dx_instances.(1)
            ~pid:pair.Reduction.Pair.watcher
      in
      let dining_msgs =
        Engine.sent_with_tag engine ~tag:pair.Reduction.Pair.dx_instances.(0)
        + Engine.sent_with_tag engine ~tag:pair.Reduction.Pair.dx_instances.(1)
      in
      let pingack =
        Engine.sent_with_tag engine ~tag:pair.Reduction.Pair.witness_tag
        + Engine.sent_with_tag engine ~tag:pair.Reduction.Pair.subject_tag
      in
      rows :=
        [
          string_of_int n;
          string_of_int (n * (n - 1));
          string_of_int (Engine.sent_total engine);
          string_of_int judgments;
          Printf.sprintf "%.1f"
            (float_of_int (dining_msgs + pingack) /. float_of_int (max 1 judgments));
        ]
        :: !rows)
    [ 2; 3; 4 ];
  Util.table
    ~header:
      [
        "n"; "ordered pairs"; "total msgs (10k ticks)"; "liveness judgments (pair 0)";
        "msgs per judgment (pair 0)";
      ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* FL — the Section 2 design space: exclusion strength vs liveness vs oracle. *)

let fl () =
  Util.section "FL  Section 2 trade-off: exclusion strength x liveness x oracle";
  let n = 6 in
  let graph = Graphs.Conflict_graph.path ~n in
  let horizon = 12000 in
  (* The crashing process is pinned inside its critical section (glutton
     client) so it deterministically dies holding its fork. *)
  let measure label build =
    let engine = Engine.create ~seed:5L ~n ~adversary:(Adversary.partial_sync ~gst:300 ()) () in
    build engine;
    Engine.schedule_crash engine 0 ~at:1000;
    Engine.run engine ~until:horizon;
    let trace = Engine.trace engine in
    let r = Dining.Monitor.finish (Trace.Phases.of_trace trace ~instance:"d") ~horizon in
    let violations = List.length (Dining.Monitor.Run.exclusion_violations r ~graph) in
    let last_violation = Dining.Monitor.Run.last_violation_time r ~graph in
    let loc = Dining.Monitor.Run.failure_locality r ~graph ~slack:4000 in
    let starved = Dining.Monitor.Run.starved r ~n ~slack:4000 in
    [
      label;
      (if violations = 0 then "perpetual"
       else
         Printf.sprintf "eventual (%d mistakes, last @%s)" violations
           (Util.opt_time last_violation));
      (match loc with Some l -> string_of_int l | None -> "unbounded");
      string_of_int (List.length starved);
    ]
  in
  let with_clients engine pid handle =
    let ctx = Engine.ctx engine pid in
    if pid = 0 then Engine.register engine pid (Dining.Clients.glutton ctx ~handle ())
    else Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
  in
  let rows =
    [
      measure "wf-◇wx + ◇P (wait-free, ◇WX)" (fun engine ->
          (* One adversarial (but spec-compliant) oracle mistake in the
             prefix, so the run exhibits the finitely-many-violations
             behaviour that distinguishes ◇WX from WX. *)
          let windows =
            [ (1, [ { Detectors.Injected.from_ = 350; until = 450; target = 0 } ]) ]
          in
          let suspects = Core.Scenario.evp_suspects engine ~n ~windows in
          for pid = 0 to n - 1 do
            let ctx = Engine.ctx engine pid in
            let comp, handle, _ =
              Dining.Wf_ewx.component ctx ~instance:"d" ~graph ~suspects:(suspects pid) ()
            in
            Engine.register engine pid comp;
            with_clients engine pid handle
          done);
      measure "fl1 + ◇P (perpetual, locality 1)" (fun engine ->
          let suspects = Core.Scenario.evp_suspects engine ~n ~windows:[] in
          for pid = 0 to n - 1 do
            let ctx = Engine.ctx engine pid in
            let comp, handle =
              Dining.Fl1.component ctx ~instance:"d" ~graph ~suspects:(suspects pid) ()
            in
            Engine.register engine pid comp;
            with_clients engine pid handle
          done);
      measure "no detector (perpetual, unbounded)" (fun engine ->
          for pid = 0 to n - 1 do
            let ctx = Engine.ctx engine pid in
            let comp, handle =
              Dining.Fl1.component ctx ~instance:"d" ~graph
                ~suspects:(fun () -> Dsim.Types.Pidset.empty)
                ()
            in
            Engine.register engine pid comp;
            with_clients engine pid handle
          done);
    ]
  in
  Util.table
    ~header:[ "algorithm / oracle"; "exclusion"; "crash locality"; "starved correct diners" ]
    rows;
  print_endline
    "  Shape (path of 6, p0 crashes @1000): with ◇P you choose — wait-freedom at\n\
    \  the cost of finitely many exclusion mistakes (this paper's problem), or\n\
    \  perpetual exclusion at the cost of starving the crash's neighbors ([11]);\n\
    \  with no oracle at all, one crash starves the whole chain."

(* ------------------------------------------------------------------ *)
(* C1 — the equivalence put to work: consensus over the extracted ◇P. *)

let c1 () =
  Util.section "C1  Intro claim: the extracted ◇P solves consensus and leader election";
  let rows = ref [] in
  List.iter
    (fun (label, source, crash) ->
      let n = 3 in
      let engine, suspects_of = Core.Scenario.evp_source ~seed:909L ~n source in
      let instances =
        List.init n (fun pid ->
            let ctx = Engine.ctx engine pid in
            let c =
              Agreement.Consensus.create ctx ~members:(List.init n Fun.id)
                ~suspects:(suspects_of pid) ()
            in
            Engine.register engine pid c.Agreement.Consensus.component;
            c.Agreement.Consensus.propose (100 + pid);
            c)
      in
      (match crash with Some at -> Engine.schedule_crash engine 2 ~at | None -> ());
      Engine.run engine ~until:30000;
      let trace = Engine.trace engine in
      let decisions = Agreement.Consensus.decisions trace in
      let latest =
        List.fold_left (fun acc (_, t, _) -> max acc t) 0 decisions
      in
      let correct_decided =
        List.for_all
          (fun pid ->
            (not (Engine.is_live engine pid))
            || List.exists
                 (fun (c : Agreement.Consensus.t) -> c.Agreement.Consensus.decided () <> None)
                 [ List.nth instances pid ])
          (List.init n Fun.id)
      in
      rows :=
        [
          label;
          Util.yes_no correct_decided;
          Util.yes_no (holds (Agreement.Consensus.agreement trace));
          (if decisions = [] then "-" else string_of_int latest);
        ]
        :: !rows)
    [
      ("native heartbeat ◇P, all correct", `Native, None);
      ("native heartbeat ◇P, crash @1000", `Native, Some 1000);
      ("EXTRACTED from dining, all correct", `Extracted, None);
      ("EXTRACTED from dining, crash @1000", `Extracted, Some 1000);
    ];
  Util.table
    ~header:[ "detector source / faults"; "every correct process decides"; "agreement"; "last decision at" ]
    (List.rev !rows);
  print_endline
    "  Shape: the oracle the reduction squeezes out of a dining black box is a\n\
    \  drop-in replacement for a native ◇P in Chandra-Toueg consensus."

(* ------------------------------------------------------------------ *)
(* D200K — a long `dinersim dining` run, property checks included: the
   checks read one pass over the 200k-tick trace, so they cost about as
   much as recording it. *)

let dining200k () =
  Util.section "D200K  wf-◇wx, ring of 5, 200k ticks, every dining check";
  let horizon = 200_000 in
  let graph = Graphs.Conflict_graph.ring ~n:5 in
  let run =
    Core.Scenario.wf_dining ~seed:1L ~adversary:(Adversary.partial_sync ~gst:500 ()) ~graph ()
  in
  let engine = run.Core.Scenario.engine in
  Engine.run engine ~until:horizon;
  let trace = Engine.trace engine in
  let n = Graphs.Conflict_graph.n graph in
  let r = Dining.Monitor.finish (Trace.Phases.of_trace trace ~instance:"dx") ~horizon in
  let module R = Dining.Monitor.Run in
  let meals = List.init n (fun pid -> R.eat_count r ~pid) in
  Util.table
    ~header:
      [
        "trace entries"; "meals"; "violations"; "wait-free"; "eventual WX from h/2";
        "overtaking"; "locality"; "fairness";
      ]
    [
      [
        string_of_int (Trace.length trace);
        string_of_int (List.fold_left ( + ) 0 meals);
        string_of_int (List.length (R.exclusion_violations r ~graph));
        Util.yes_no (holds (R.wait_freedom r ~n ~slack:(horizon / 5)));
        Util.yes_no (holds (R.eventual_weak_exclusion r ~graph ~suffix_from:(horizon / 2)));
        string_of_int (R.max_overtaking r ~graph ~after:(horizon / 2));
        (match R.failure_locality r ~graph ~slack:(horizon / 5) with
        | Some l -> string_of_int l
        | None -> "unbounded");
        Printf.sprintf "%.2f" (R.fairness_index r ~pids:(List.init n Fun.id));
      ];
    ]

(* ------------------------------------------------------------------ *)
(* SC — engine scaling curve: the ROADMAP's million-philosopher target. *)

(* One scaling point: a ring of [n] hygienic diners with greedy clients,
   run for a fixed total budget of process-ticks so every point does
   comparable work and the per-point wall times expose the engine's
   per-process cost. Hygienic dining needs no failure detector, so the
   whole run is engine + dining algorithm — exactly the hot path the
   timing wheel and dense process state exist for. [retain_trace:false]
   keeps 10^5 processes within memory; meals stream through a trace
   subscriber. Everything printed is deterministic (seeded PRNG only);
   wall time is the harness's job. *)
let scale ~n () =
  Util.section (Printf.sprintf "SC  scaling curve point: n = %d (ring, hygienic)" n);
  let budget = 2_000_000 in
  let ticks = max 20 (budget / n) in
  let engine =
    Engine.create ~seed:4242L ~retain_trace:false ~n
      ~adversary:(Adversary.async_uniform ()) ()
  in
  let graph = Graphs.Conflict_graph.ring ~n in
  let meals = ref 0 in
  Trace.subscribe (Engine.trace engine) (fun e ->
      match e.Trace.ev with
      | Trace.Transition { to_ = Types.Eating; _ } -> incr meals
      | _ -> ());
  List.assoc "hygienic" Core.Scenario.default_registry engine ~graph ~instance:"sc"
    ~eat_ticks:3;
  Engine.run engine ~until:ticks;
  Util.table
    ~header:[ "n"; "ticks"; "proc-ticks"; "meals"; "msgs sent"; "in flight at end" ]
    [
      [
        string_of_int n;
        string_of_int ticks;
        string_of_int (n * ticks);
        string_of_int !meals;
        string_of_int (Engine.sent_total engine);
        string_of_int (Engine.in_flight_total engine);
      ];
    ]

let scale2 () = scale ~n:100 ()
let scale3 () = scale ~n:1_000 ()
let scale4 () = scale ~n:10_000 ()
let scale5 () = scale ~n:100_000 ()

let all () =
  f1 ();
  t1 ();
  t2 ();
  lemmas ();
  v1 ();
  s9 ();
  k1 ();
  a1 ();
  a2 ();
  fl ();
  c1 ();
  sweep ();
  m1 ()

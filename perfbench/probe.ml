(* Library-side half of the benchmark (perfbench/run.py drives it).

   probe scale-ring SEED N BUDGET OUT
       One untraced scale-ring execution: n-process hygienic ring,
       async-uniform adversary, no retained trace, greedy clients, BUDGET
       process-ticks. Writes a small JSON result (timings and exact counts)
       to OUT.
   probe strip REPORT
       Print the MD5 of the report with its wall_clock section removed
       (Obs.Report.strip_wall_clock), the byte-identity key of a run.
   probe setup WORKLOAD SEED SAMPLES KNOB...
       Print the median seconds the workload spends setting up one
       execution (dining-long) or one explored schedule (mc-check), with
       no tick run.
   probe trace WORKLOAD SEED OUT_DIR [KNOB...]
       The traced run: re-executes the workload through the public
       functions of each layer, recording a span around every call, and
       writes spans.tsv, report.json and layers.json to OUT_DIR.
       Knobs: dining-long HORIZON | scale-ring N BUDGET |
       mc-check HORIZON MAX_SCHEDULES. *)

open Dsim

let now = Obs.Instrument.now_s

(* Words allocated so far: minor-heap words plus direct major-heap words. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

(* ------------------------------------------------------------------ *)
(* Spans, held in memory and written out once at the end. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level. *)
  run : int;  (** Explored schedule; -1 outside one. *)
  t0 : float;
  t1 : float;
  alloc_w : float;
  majors : int;
}

let spans = ref []
let next_id = ref 0
let open_spans = ref []

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !open_spans with p :: _ -> p | [] -> -1

let add ~id ~name ~parent ~run ~t0 ~t1 ~alloc_w ~majors =
  spans := { id; name; parent; run; t0; t1; alloc_w; majors } :: !spans

let span ?(run = -1) name f =
  let id = fresh_id () and parent = current () in
  open_spans := id :: !open_spans;
  let a0 = alloc_words () and g0 = major_gcs () and t0 = now () in
  let finish () =
    let t1 = now () in
    open_spans := List.tl !open_spans;
    add ~id ~name ~parent ~run ~t0 ~t1 ~alloc_w:(alloc_words () -. a0) ~majors:(major_gcs () - g0)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let layers = [ "deploy"; "engine"; "monitor"; "mc"; "obs" ]

let write_spans path =
  let oc = open_out path in
  output_string oc "id\tparent\trun\tname\tstart_s\tend_s\talloc_w\tmajor_gcs\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\t%.0f\t%d\n" s.id s.parent s.run s.name s.t0
        s.t1 s.alloc_w s.majors)
    (List.rev !spans);
  close_out oc

(* Self time and self allocation of every span: its own figures minus
   those of its direct children. *)
let self_by_layer all =
  let child_time = Hashtbl.create 1024 and child_alloc = Hashtbl.create 1024 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        bump child_time s.parent (s.t1 -. s.t0);
        bump child_alloc s.parent s.alloc_w
      end)
    all;
  let time = Hashtbl.create 8 and alloc = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      let l = layer_of s.name in
      bump time l (s.t1 -. s.t0 -. get child_time);
      bump alloc l (s.alloc_w -. get child_alloc))
    all;
  let get tbl l = Option.value ~default:0. (Hashtbl.find_opt tbl l) in
  (get time, get alloc)

let total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc) 0. !spans

let durations name =
  List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) !spans
  |> Array.of_list

(* Nearest-rank percentile; 0 when the layer never ran. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let a = Array.copy a in
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
  end

(* ------------------------------------------------------------------ *)
(* Shared pieces *)

type counts = {
  mutable proc_ticks : int;
  mutable msgs_sent : int;
  mutable meals : int;
  mutable events : int;
}

let counts () = { proc_ticks = 0; msgs_sent = 0; meals = 0; events = 0 }
let json_num f = Obs.Json.Float f
let file_size path = (Unix.stat path).Unix.st_size

let strip_digest path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Obs.Json.of_string text |> Obs.Report.strip_wall_clock |> Obs.Json.to_string |> Digest.string
  |> Digest.to_hex

(* Times a named step: a span in the traced run, a stopwatch otherwise. *)
type wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

(* The scale-ring execution. *)
let scale_ring { wrap } ~seed ~n ~budget (c : counts) =
  let ticks = max 20 (budget / n) in
  let engine =
    wrap "deploy" (fun () ->
        let graph = wrap "deploy.graph" (fun () -> Graphs.Conflict_graph.ring ~n) in
        let engine =
          Engine.create ~seed ~retain_trace:false ~n ~adversary:(Adversary.async_uniform ()) ()
        in
        Trace.subscribe (Engine.trace engine) (fun e ->
            c.events <- c.events + 1;
            match e.Trace.ev with
            | Trace.Transition { to_ = Types.Eating; _ } -> c.meals <- c.meals + 1
            | _ -> ());
        for pid = 0 to n - 1 do
          let ctx = Engine.ctx engine pid in
          let comp, handle, _ = Dining.Hygienic.component ctx ~instance:"sc" ~graph () in
          Engine.register engine pid comp;
          Engine.register engine pid (Dining.Clients.greedy ctx ~handle ())
        done;
        engine)
  in
  wrap "engine.run" (fun () -> Engine.run engine ~until:ticks);
  c.proc_ticks <- n * ticks;
  c.msgs_sent <- Engine.sent_total engine;
  ticks

let scale_ring_json ~n ~ticks (c : counts) extra =
  Obs.Json.Obj
    ([
       ("n", Obs.Json.Int n);
       ("ticks", Obs.Json.Int ticks);
       ("proc_ticks", Obs.Json.Int c.proc_ticks);
       ("meals", Obs.Json.Int c.meals);
       ("msgs_sent", Obs.Json.Int c.msgs_sent);
       ("trace_events", Obs.Json.Int c.events);
     ]
    @ extra)

let write_json path j =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string_pretty j);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Traced mirrors of the three workloads *)

let dining_monitors ~trace ~instance ~graph ~n ~horizon =
  (* Same calls, same order, as run_dining in bin/dinersim.ml. *)
  let meals =
    span "monitor.eat_count" (fun () ->
        List.init n (fun pid -> Dining.Monitor.eat_count trace ~instance ~pid))
  in
  let _violations, _last =
    span "monitor.exclusion" (fun () ->
        ( Dining.Monitor.exclusion_violations trace ~instance ~graph ~horizon,
          Dining.Monitor.last_violation_time trace ~instance ~graph ~horizon ))
  in
  let wf =
    span "monitor.timeline" (fun () ->
        Dining.Monitor.wait_freedom trace ~instance ~n ~horizon ~slack:(horizon / 5))
  in
  let _overtaking =
    span "monitor.overtaking" (fun () ->
        Dining.Monitor.max_overtaking trace ~instance ~graph ~after:(horizon / 2) ~horizon)
  in
  let _locality =
    span "monitor.timeline" (fun () ->
        Dining.Monitor.failure_locality trace ~instance ~graph ~horizon ~slack:(horizon / 5))
  in
  let _fairness =
    span "monitor.eat_count" (fun () ->
        Dining.Monitor.fairness_index trace ~instance ~pids:(List.init n Fun.id))
  in
  let wx =
    span "monitor.exclusion" (fun () ->
        Dining.Monitor.eventual_weak_exclusion trace ~instance ~graph ~horizon
          ~suffix_from:(horizon / 2))
  in
  (List.fold_left ( + ) 0 meals, wf, wx)

(* [dinersim dining --algo wf] on its defaults: ring of 5, partial-sync
   gst=500, eat 3, no crashes. [instrument] runs between Engine.create and
   the registrations, where the CLI installs Obs.Instrument. *)
let deploy_dining ~seed ~n ~graph ~instrument =
  let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:500 ()) () in
  let inst = instrument engine in
  let suspects = Core.Scenario.evp_suspects engine ~n ~windows:[] in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle, _ =
      Dining.Wf_ewx.component ctx ~instance:"din" ~graph ~suspects:(suspects pid) ()
    in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ~eat_ticks:3 ())
  done;
  (engine, inst)

let trace_dining ~seed ~horizon ~out (c : counts) =
  let n = 5 in
  let engine, graph, inst =
    span "deploy" (fun () ->
        let graph = span "deploy.graph" (fun () -> Graphs.Conflict_graph.ring ~n) in
        let engine, inst =
          deploy_dining ~seed ~n ~graph ~instrument:(fun engine ->
              let metrics = Obs.Metrics.create () in
              span "obs.install" (fun () -> (metrics, Obs.Instrument.install ~metrics engine)))
        in
        (engine, graph, inst))
  in
  let metrics, inst = inst in
  span "engine.run" (fun () -> Engine.run engine ~until:horizon);
  let trace = Engine.trace engine in
  let meals, wf, wx = dining_monitors ~trace ~instance:"din" ~graph ~n ~horizon in
  let report = Filename.concat out "report.json" in
  span "obs.report_write" (fun () ->
      Obs.Instrument.finalize inst;
      let config =
        [
          ("algo", Obs.Json.Str "wf");
          ("n", Obs.Json.Int n);
          ("edges", Obs.Json.Int (List.length (Graphs.Conflict_graph.edges graph)));
          ("adversary", Obs.Json.Str (Adversary.partial_sync ~gst:500 ()).Adversary.name);
          ("eat_ticks", Obs.Json.Int 3);
          ("crashes", Obs.Json.Arr []);
        ]
      in
      Obs.Report.write ~path:report
        (Obs.Report.make ~cmd:"dining" ~seed ~horizon ~config ~metrics
           ~checks:
             [
               Obs.Report.of_verdict "wait_freedom" wf;
               Obs.Report.of_verdict "eventual_weak_exclusion" wx;
             ]
           ~wall:(Obs.Instrument.wall_json inst) ()));
  c.proc_ticks <- n * horizon;
  c.msgs_sent <- Engine.sent_total engine;
  c.meals <- meals;
  c.events <- Trace.length trace;
  (* Instrumentation overhead: the same deployment and Engine.run with and
     without Obs.Instrument, outside the span tree. *)
  let engine_only instrument =
    let engine, () = deploy_dining ~seed ~n ~graph ~instrument in
    snd (Obs.Instrument.time (fun () -> Engine.run engine ~until:horizon))
  in
  let bare = engine_only ignore in
  let instrumented =
    engine_only (fun engine ->
        ignore (Obs.Instrument.install ~metrics:(Obs.Metrics.create ()) engine))
  in
  [
    ("obs.report_bytes", float_of_int (file_size report));
    ("obs.instrument_overhead_s", instrumented -. bare);
  ]

(* [dinersim check --algo wf --topology pair --delta 3 --phi 1 --eat-ticks 1
   -j 1]. The explorer runs each schedule through Check.Runner internally,
   so the per-schedule spans come from the registry: a wrapped builder marks
   deployment, and an on_tick hook marks the end of Engine.run. What
   follows the last tick until the next schedule deploys (the runner's
   checks and the explorer's bookkeeping) is the "mc.tail" span. *)
let trace_mc ~seed ~horizon ~max_schedules ~out (c : counts) =
  let base =
    {
      Check.Config.algo = "wf";
      topology = Check.Config.Pair;
      adversary = Check.Config.Dls { delta = 3; phi = 1 };
      crashes = [];
      handicap = None;
      horizon;
      eat_ticks = 1;
      seed;
    }
  in
  let config =
    {
      Mc.Explore.base;
      por = true;
      max_schedules;
      split_depth = 4;
      jobs = 1;
      crash_budget = 0;
      crash_grid = 4;
      collect_schedules = false;
    }
  in
  let explore_id = fresh_id () in
  let schedule = ref (-1) in
  (* End of the previous schedule's Engine.run, closed into an mc.tail span
     when the next schedule starts or the exploration ends. *)
  let pending_tail = ref None in
  let close_tail t1 =
    Option.iter
      (fun (run, t0, a0) ->
        add ~id:(fresh_id ()) ~name:"mc.tail" ~parent:explore_id ~run ~t0 ~t1
          ~alloc_w:(alloc_words () -. a0) ~majors:0)
      !pending_tail;
    pending_tail := None
  in
  let wrap (builder : Check.Runner.builder) : Check.Runner.builder =
   fun engine ~graph ~instance ~eat_ticks ->
    let t0 = now () in
    close_tail t0;
    incr schedule;
    let run = !schedule in
    let a0 = alloc_words () and g0 = major_gcs () in
    builder engine ~graph ~instance ~eat_ticks;
    let t1 = now () and a1 = alloc_words () in
    add ~id:(fresh_id ()) ~name:"deploy" ~parent:explore_id ~run ~t0 ~t1 ~alloc_w:(a1 -. a0)
      ~majors:0;
    let n = Engine.n engine in
    Trace.subscribe (Engine.trace engine) (fun e ->
        match e.Trace.ev with
        | Trace.Transition { to_ = Types.Eating; _ } -> c.meals <- c.meals + 1
        | _ -> ());
    Engine.on_tick engine (fun () ->
        if Engine.now engine >= horizon then begin
          (* Major collections of the whole deploy + run, charged to the
             engine: one Gc.quick_stat per boundary is the costly part. *)
          let t2 = now () and a2 = alloc_words () and g2 = major_gcs () in
          add ~id:(fresh_id ()) ~name:"engine.run" ~parent:explore_id ~run ~t0:t1 ~t1:t2
            ~alloc_w:(a2 -. a1) ~majors:(g2 - g0);
          c.proc_ticks <- c.proc_ticks + (n * horizon);
          c.msgs_sent <- c.msgs_sent + Engine.sent_total engine;
          c.events <- c.events + Trace.length (Engine.trace engine);
          pending_tail := Some (run, now (), alloc_words ())
        end)
  in
  let registry = List.map (fun (name, b) -> (name, wrap b)) Check.Runner.default_registry in
  let metrics = Obs.Metrics.create () in
  let a0 = alloc_words () and g0 = major_gcs () and t0 = now () in
  let result = Mc.Explore.run ~metrics ~registry config in
  let t1 = now () in
  close_tail t1;
  add ~id:explore_id ~name:"mc.explore" ~parent:(-1) ~run:(-1) ~t0 ~t1
    ~alloc_w:(alloc_words () -. a0) ~majors:(major_gcs () - g0);
  let s = result.Mc.Explore.stats in
  if s.Mc.Explore.violation_count > 0 || s.Mc.Explore.truncated then
    failwith "mc: violations or truncated exploration";
  let report = Filename.concat out "report.json" in
  span "obs.report_write" (fun () ->
      let wall = Obs.Json.Obj [ ("total_s", Obs.Json.Float (t1 -. t0)) ] in
      Obs.Report.write ~path:report (Mc.Report.make ~config ~result ~metrics ~wall ()));
  [
    ("mc.schedules", float_of_int s.Mc.Explore.schedules);
    ("mc.pruned", float_of_int s.Mc.Explore.pruned);
    ("mc.max_decisions", float_of_int s.Mc.Explore.max_decisions);
    ("mc.us_per_schedule", 1e6 *. (t1 -. t0) /. float_of_int (max 1 s.Mc.Explore.schedules));
    ("obs.report_bytes", float_of_int (file_size report));
  ]

let trace_scale ~seed ~n ~budget ~out (c : counts) =
  let ticks = scale_ring { wrap = (fun name f -> span name f) } ~seed ~n ~budget c in
  let report = Filename.concat out "report.json" in
  span "obs.report_write" (fun () -> write_json report (scale_ring_json ~n ~ticks c []));
  [ ("obs.report_bytes", float_of_int (file_size report)) ]

(* Set-up of one execution as the CLI performs it, with no tick run: graph,
   Engine.create, instrumentation, coverage and every component registered.
   Prints the median over [samples] batches of the seconds per set-up; a
   batch repeats small set-ups so each sample spans a millisecond or more. *)
let setup_cmd workload seed samples knobs =
  let int i = int_of_string (List.nth knobs i) in
  let registry = Check.Runner.default_registry in
  (* What Check.Runner.run does before Engine.run. *)
  let runner_deploy (cfg : Check.Config.t) =
    let graph = Check.Config.graph cfg in
    let n = Graphs.Conflict_graph.n graph in
    let engine =
      Engine.create ~seed:cfg.Check.Config.seed ~n ~adversary:(Check.Config.to_adversary cfg) ()
    in
    Obs.Coverage.attach (Obs.Coverage.create ()) (Engine.trace engine);
    (List.assoc cfg.Check.Config.algo registry) engine ~graph ~instance:Check.Runner.instance
      ~eat_ticks:cfg.Check.Config.eat_ticks
  in
  let batch, once =
    match workload with
    | "dining-long" ->
        ( 100,
          fun () ->
            let graph = Graphs.Conflict_graph.ring ~n:5 in
            ignore
              (deploy_dining ~seed ~n:5 ~graph ~instrument:(fun engine ->
                   Obs.Instrument.install ~metrics:(Obs.Metrics.create ()) engine)) )
    | "mc-check" ->
        (* One schedule's deployment; the explorer repeats it per schedule. *)
        let cfg =
          {
            Check.Config.algo = "wf";
            topology = Check.Config.Pair;
            adversary = Check.Config.Dls { delta = 3; phi = 1 };
            crashes = [];
            handicap = None;
            horizon = int 0;
            eat_ticks = 1;
            seed;
          }
        in
        (200, fun () -> runner_deploy cfg)
    | w -> failwith ("unknown workload " ^ w)
  in
  let per_setup () =
    let (), dt =
      Obs.Instrument.time (fun () ->
          for _ = 1 to batch do
            once ()
          done)
    in
    dt /. float_of_int batch
  in
  let a = Array.init samples (fun _ -> per_setup ()) in
  Array.sort compare a;
  Printf.printf "%.9g\n" a.(samples / 2)

(* Every per-layer metric, for every workload: a layer that does no work on
   a workload reports 0. *)
let layer_metrics ~wall (c : counts) specific =
  let all = !spans in
  let self_time, self_alloc = self_by_layer all in
  let engine_spans = List.filter (fun s -> s.name = "engine.run") all in
  let check_runs =
    (* Checks of one run: mc.tail in mc, the monitor layer otherwise. *)
    let tail = durations "mc.tail" in
    if Array.length tail > 0 then tail else [| self_time "monitor" |]
  in
  let deploy_runs = durations "deploy" and engine_runs = durations "engine.run" in
  let mw x = x /. 1e6 in
  let base =
    [
      ("engine.run_s", self_time "engine");
      ( "engine.ns_per_proc_tick",
        1e9 *. self_time "engine" /. float_of_int (max 1 c.proc_ticks) );
      ("engine.alloc_mw", mw (self_alloc "engine"));
      ( "engine.major_gcs",
        float_of_int (List.fold_left (fun acc s -> acc + s.majors) 0 engine_spans) );
      ("engine.proc_ticks", float_of_int c.proc_ticks);
      ("engine.msgs_sent", float_of_int c.msgs_sent);
      ("dining.meals", float_of_int c.meals);
      ("trace.events", float_of_int c.events);
      ("deploy.s", self_time "deploy");
      ("deploy.alloc_mw", mw (self_alloc "deploy"));
      ("graph.build_s", total "deploy.graph");
      ("monitor.exclusion_s", total "monitor.exclusion");
      ("monitor.overtaking_s", total "monitor.overtaking");
      ("monitor.timeline_s", total "monitor.timeline");
      ("monitor.eat_count_s", total "monitor.eat_count");
      ("monitor.total_s", self_time "monitor");
      ("monitor.alloc_mw", mw (self_alloc "monitor"));
      ("runner.deploy_s_p50", percentile deploy_runs 0.5);
      ("runner.deploy_s_p95", percentile deploy_runs 0.95);
      ("runner.engine_s_p50", percentile engine_runs 0.5);
      ("runner.engine_s_p95", percentile engine_runs 0.95);
      ("runner.check_s_p50", percentile check_runs 0.5);
      ("runner.check_s_p95", percentile check_runs 0.95);
      ("mc.self_s", self_time "mc");
      ("mc.alloc_mw", mw (self_alloc "mc"));
      ("obs.self_s", self_time "obs");
      ("obs.alloc_mw", mw (self_alloc "obs"));
      ("obs.report_write_s", total "obs.report_write");
      ("traced.wall_s", wall);
    ]
  in
  let defaults =
    [
      "mc.schedules"; "mc.pruned"; "mc.max_decisions"; "mc.us_per_schedule"; "obs.report_bytes";
      "obs.instrument_overhead_s";
    ]
  in
  let specific_or k = Option.value ~default:0. (List.assoc_opt k specific) in
  let metrics = base @ List.map (fun k -> (k, specific_or k)) defaults in
  let largest =
    List.fold_left
      (fun (bl, bt) l -> if self_time l > bt then (l, self_time l) else (bl, bt))
      ("none", neg_infinity) layers
    |> fst
  in
  Obs.Json.Obj
    [
      ("metrics", Obs.Json.Obj (List.map (fun (k, v) -> (k, json_num v)) metrics));
      ( "self_s",
        Obs.Json.Obj (List.map (fun l -> (l, json_num (self_time l))) layers) );
      ("largest_self_layer", Obs.Json.Str largest);
    ]

let trace_cmd workload seed out knobs =
  let c = counts () in
  let int i = int_of_string (List.nth knobs i) in
  let specific, wall =
    Obs.Instrument.time (fun () ->
        match workload with
        | "dining-long" -> trace_dining ~seed ~horizon:(int 0) ~out c
        | "scale-ring" -> trace_scale ~seed ~n:(int 0) ~budget:(int 1) ~out c
        | "mc-check" -> trace_mc ~seed ~horizon:(int 0) ~max_schedules:(int 1) ~out c
        | w -> failwith ("unknown workload " ^ w))
  in
  write_spans (Filename.concat out "spans.tsv");
  write_json (Filename.concat out "layers.json") (layer_metrics ~wall c specific)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "scale-ring"; seed; n; budget; out ] ->
      let c = counts () and n = int_of_string n in
      let setup = ref 0. and engine = ref 0. in
      let wrap name f =
        let v, dt = Obs.Instrument.time f in
        if name = "deploy" then setup := dt else if name = "engine.run" then engine := dt;
        v
      in
      let ticks =
        scale_ring { wrap } ~seed:(Int64.of_string seed) ~n ~budget:(int_of_string budget) c
      in
      write_json out
        (scale_ring_json ~n ~ticks c
           [ ("setup_s", json_num !setup); ("engine_s", json_num !engine) ])
  | [ "strip"; path ] -> print_endline (strip_digest path)
  | "setup" :: workload :: seed :: samples :: knobs ->
      setup_cmd workload (Int64.of_string seed) (int_of_string samples) knobs
  | "trace" :: workload :: seed :: out :: knobs ->
      trace_cmd workload (Int64.of_string seed) out knobs
  | _ ->
      prerr_endline
        "usage: probe (scale-ring SEED N BUDGET OUT | strip REPORT | setup WORKLOAD SEED SAMPLES \
         KNOB... | trace WORKLOAD SEED OUT_DIR KNOB...)";
      exit 2

open Dsim

type mistake_windows = (Types.pid * Detectors.Injected.window list) list

let evp_suspects engine ~n ~windows =
  let fns = Array.make n (fun () -> Types.Pidset.empty) in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, base = Detectors.Heartbeat.component ctx ~peers:(List.init n Fun.id) () in
    Engine.register engine pid comp;
    let oracle =
      match List.assoc_opt pid windows with
      | None -> base
      | Some ws ->
          let icomp, wrapped = Detectors.Injected.wrap ctx ~base ~windows:ws in
          Engine.register engine pid icomp;
          wrapped
    in
    fns.(pid) <- (fun () -> oracle.Detectors.Oracle.suspects ())
  done;
  fun pid -> fns.(pid)

let trusting_suspects ?detection_delay engine ~n =
  let fns = Array.make n (fun () -> Types.Pidset.empty) in
  for pid = 0 to n - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, oracle =
      Detectors.Ground_truth.trusting ctx ?detection_delay ~peers:(List.init n Fun.id) ()
    in
    Engine.register engine pid comp;
    fns.(pid) <- (fun () -> oracle.Detectors.Oracle.suspects ())
  done;
  fun pid -> fns.(pid)

(* ------------------------------------------------------------------ *)
(* The dining registry *)

type builder =
  Engine.t -> graph:Graphs.Conflict_graph.t -> instance:string -> eat_ticks:int -> unit

type registry = (string * builder) list

(* One diner plus one greedy client on every process; [make] returns the
   diner of [pid] and its handle. *)
let with_diners make engine ~graph ~eat_ticks =
  for pid = 0 to Graphs.Conflict_graph.n graph - 1 do
    let ctx = Engine.ctx engine pid in
    let comp, handle = make ctx pid in
    Engine.register engine pid comp;
    Engine.register engine pid (Dining.Clients.greedy ctx ~handle ~eat_ticks ())
  done

let with_evp make engine ~graph ~instance ~eat_ticks =
  let suspects = evp_suspects engine ~n:(Graphs.Conflict_graph.n graph) ~windows:[] in
  with_diners
    (fun ctx pid -> make ctx ~graph ~instance ~suspects:(suspects pid))
    engine ~graph ~eat_ticks

let wf_builder =
  with_evp (fun ctx ~graph ~instance ~suspects ->
      let c, h, _ = Dining.Wf_ewx.component ctx ~instance ~graph ~suspects () in
      (c, h))

let kfair_builder =
  with_evp (fun ctx ~graph ~instance ~suspects ->
      let c, h, _ = Dining.Kfair.component ctx ~instance ~graph ~suspects () in
      (c, h))

let fl1_builder =
  with_evp (fun ctx ~graph ~instance ~suspects ->
      Dining.Fl1.component ctx ~instance ~graph ~suspects ())

let hygienic_builder engine ~graph ~instance ~eat_ticks =
  with_diners
    (fun ctx _ ->
      let c, h, _ = Dining.Hygienic.component ctx ~instance ~graph () in
      (c, h))
    engine ~graph ~eat_ticks

let ftme_builder engine ~graph ~instance ~eat_ticks =
  let n = Graphs.Conflict_graph.n graph in
  let members = List.init n Fun.id in
  let suspects = trusting_suspects engine ~n in
  with_diners
    (fun ctx pid ->
      let c, h, _ = Dining.Ftme.component ctx ~instance ~members ~suspects:(suspects pid) () in
      (c, h))
    engine ~graph ~eat_ticks

let default_registry =
  [
    ("wf", wf_builder);
    ("kfair", kfair_builder);
    ("fl1", fl1_builder);
    ("hygienic", hygienic_builder);
    ("ftme", ftme_builder);
  ]

let find registry name =
  match List.assoc_opt name registry with
  | Some b -> Ok b
  | None ->
      let known = String.concat ", " (List.map fst registry) in
      Error (Printf.sprintf "unknown algorithm %S (known: %s)" name known)

(* ------------------------------------------------------------------ *)
(* Deployments *)

type ctm_run = {
  engine : Engine.t;
  store : Ctm.Store.stats;
  clients : (Types.pid * Ctm.Client.stats) list;
}

let ctm ?(seed = 7L) ?compute_ticks ~clients ~with_cm () =
  let n = clients + 1 in
  let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:400 ()) () in
  let store_comp, store = Ctm.Store.component (Engine.ctx engine 0) () in
  Engine.register engine 0 store_comp;
  let client_pids = List.init clients (fun i -> i + 1) in
  let graph =
    Graphs.Conflict_graph.of_edges ~n
      (List.concat_map
         (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None) client_pids)
         client_pids)
  in
  let clients =
    List.map
      (fun pid ->
        let ctx = Engine.ctx engine pid in
        let cm =
          if with_cm then begin
            let fd, oracle = Detectors.Heartbeat.component ctx ~peers:client_pids () in
            Engine.register engine pid fd;
            let comp, handle, _ =
              Dining.Wf_ewx.component ctx ~instance:"cm" ~graph
                ~suspects:(fun () -> oracle.Detectors.Oracle.suspects ())
                ()
            in
            Engine.register engine pid comp;
            Some handle
          end
          else None
        in
        let comp, st = Ctm.Client.component ctx ~store:0 ?cm ?compute_ticks () in
        Engine.register engine pid comp;
        (pid, st))
      client_pids
  in
  { engine; store; clients }

type extraction_run = {
  engine : Engine.t;
  extract : Reduction.Extract.t;
  onlines : (Reduction.Pair.t * Reduction.Lemmas.online) list;
}

let monitors engine extract enabled =
  if not enabled then []
  else
    List.map
      (fun pair -> (pair, Reduction.Lemmas.install_online ~engine ~pair))
      extract.Reduction.Extract.pairs

let wf_extraction ?(seed = 7L) ?(adversary = Adversary.partial_sync ~gst:500 ())
    ?(windows = []) ?(with_lemma_monitors = true) ~n () =
  let engine = Engine.create ~seed ~n ~adversary () in
  let suspects = evp_suspects engine ~n ~windows in
  let dining = Reduction.Pair.wf_ewx_factory ~n ~suspects in
  let extract = Reduction.Extract.create ~engine ~dining ~members:(List.init n Fun.id) () in
  { engine; extract; onlines = monitors engine extract with_lemma_monitors }

let evp_source ~seed ~n = function
  | `Extracted ->
      let run = wf_extraction ~seed ~with_lemma_monitors:false ~n () in
      ( run.engine,
        fun pid ->
          let oracle = Reduction.Extract.oracle run.extract pid in
          fun () -> oracle.Detectors.Oracle.suspects () )
  | `Native ->
      let engine = Engine.create ~seed ~n ~adversary:(Adversary.partial_sync ~gst:500 ()) () in
      (engine, evp_suspects engine ~n ~windows:[])

let ftme_extraction ?(seed = 9L) ?(adversary = Adversary.async_uniform ())
    ?(detection_delay = 25) ~n () =
  let engine = Engine.create ~seed ~n ~adversary () in
  let suspects = trusting_suspects ~detection_delay engine ~n in
  let dining = Reduction.Pair.ftme_factory ~suspects in
  let extract = Reduction.Extract.create ~engine ~dining ~members:(List.init n Fun.id) () in
  { engine; extract; onlines = [] }

let vulnerability ?(seed = 43L) ?(adversary = Adversary.partial_sync ~gst:500 ())
    ?(mistake_until = 300) ~mode () =
  let n = 2 in
  let engine = Engine.create ~seed ~n ~adversary () in
  let windows =
    [ (0, [ { Detectors.Injected.from_ = 0; until = mistake_until; target = 1 } ]) ]
  in
  let suspects = evp_suspects engine ~n ~windows in
  let dining = Reduction.Pair.wf_ewx_factory ~n ~suspects in
  match mode with
  | `Flawed_cm ->
      let cm = Reduction.Flawed_cm.create ~engine ~dining ~watcher:1 ~subject:0 () in
      (engine, cm.Reduction.Flawed_cm.suspected)
  | `Our_reduction ->
      let pair = Reduction.Pair.create ~engine ~dining ~watcher:1 ~subject:0 () in
      (engine, pair.Reduction.Pair.suspected)

(* Experiment and benchmark harness.

     dune exec bench/main.exe                  # every experiment + micro benches
     dune exec bench/main.exe -- t1 v1         # selected experiments
     dune exec bench/main.exe -- --trials 5 -j 4   # median of 5 timings

   One entry per artifact of the paper; see the per-experiment index in
   DESIGN.md and the measured-vs-paper discussion in EXPERIMENTS.md.

   Every invocation also writes BENCH_dining.json at the current
   directory (the repo root under `dune exec`): one wall-clock entry per
   experiment run, schema "dinersim-bench/1". This file is the perf
   trajectory anchor — successive PRs append comparable snapshots.

   --trials T re-runs every experiment T times and records the median
   wall time (first trial prints normally; re-runs go to /dev/null).
   -j/--jobs spreads the re-runs over that many worker domains
   (default 1: contention-free timings). The bench file is wall-clock
   trajectory data, never canonical — trials and jobs are recorded in
   it so snapshots are comparable. *)

let registry =
  [
    ("f1", "Figure 1: witness/subject hand-off timeline", Experiments.f1);
    ("t1", "Theorem 1: strong completeness", Experiments.t1);
    ("t2", "Theorem 2: eventual strong accuracy", Experiments.t2);
    ("lemmas", "Lemmas 1-12 as run-time checks", Experiments.lemmas);
    ("v1", "Section 3: flawed [8] construction vs ours", Experiments.v1);
    ("s9", "Section 9: extracting T from perpetual WX", Experiments.s9);
    ("k1", "Section 8: eventual 2-fairness composition", Experiments.k1);
    ("a1", "Section 2: WSN duty-cycle scheduling", Experiments.a1);
    ("a2", "Sections 2-3: contention-manager boost", Experiments.a2);
    ("fl", "Section 2 trade-off: exclusion vs liveness vs oracle", Experiments.fl);
    ("c1", "intro claim: extracted ◇P solves consensus", Experiments.c1);
    ("sweep", "multi-seed statistical sweep of the theorems", Experiments.sweep);
    ("m1", "engineering: message cost", Experiments.m1);
    ("dining200k", "end to end: wf ring of 5, 200k ticks, checks included", Experiments.dining200k);
    ("scale2", "engine scaling curve: n = 10^2 ring", Experiments.scale2);
    ("scale3", "engine scaling curve: n = 10^3 ring", Experiments.scale3);
    ("scale4", "engine scaling curve: n = 10^4 ring", Experiments.scale4);
    ("scale5", "engine scaling curve: n = 10^5 ring", Experiments.scale5);
    ("micro", "Bechamel micro-benchmarks", Micro.run);
  ]

let usage () =
  print_endline
    "usage: main.exe [--trials T] [-j N] [--out FILE] [experiment ...]\n\
     available experiments:";
  List.iter (fun (key, doc, _) -> Printf.printf "  %-8s %s\n" key doc) registry;
  print_endline "  all      run everything (default)"

let default_bench_path = "BENCH_dining.json"

let time_run f =
  (* The harness measures real elapsed time; wall times are reporting only
     and never feed back into simulated behaviour. *)
  (* simlint: allow D001 — wall-clock benchmark timing *)
  let t0 = Unix.gettimeofday () in
  f ();
  (* simlint: allow D001 — wall-clock benchmark timing *)
  Unix.gettimeofday () -. t0

(* Re-run trials repeat the experiments for timing only; their narrative
   output duplicates the first trial's, so fd 1 points at /dev/null for
   the duration (process-wide, hence also for every worker domain). *)
let with_quiet_stdout f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let write_bench ~out ~trials ~jobs entries =
  let j =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "dinersim-bench/1");
        ("suite", Obs.Json.Str "dining");
        ("trials", Obs.Json.Int trials);
        ("jobs", Obs.Json.Int jobs);
        ("experiments", Obs.Json.Arr entries);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs.Json.to_string_pretty j));
  Printf.printf "\nbench report written to %s\n" out

(* Bechamel stabilizes the major heap before sampling and fails if it
   cannot — impossible while sibling worker domains allocate — and it is
   already a statistical harness of its own, so "micro" gets exactly one
   wall sample and never rides the re-trial pool. *)
let retrials_p (key, _, _) = key <> "micro"

let run_selected ~out ~trials ~jobs entries =
  let entries = Array.of_list entries in
  (* Trial 0 runs sequentially with normal output — the experiment text is
     part of the harness's human contract. *)
  let first = Array.map (fun (_, _, f) -> time_run f) entries in
  (* Extra trials are timing-only; pool item [i] re-runs poolable
     experiment [i mod m], so merging back in index order groups trials
     per experiment. *)
  let pooled =
    Array.of_list
      (List.filteri
         (fun i _ -> retrials_p entries.(i))
         (List.init (Array.length entries) Fun.id))
  in
  let m = Array.length pooled in
  let extra =
    if trials <= 1 || m = 0 then [||]
    else
      with_quiet_stdout (fun () ->
          Exec.Pool.map ~jobs
            (m * (trials - 1))
            (fun i ->
              let _, _, f = entries.(pooled.(i mod m)) in
              time_run f))
  in
  let json =
    Array.to_list
      (Array.mapi
         (fun i (key, doc, _) ->
           let walls =
             Array.of_list
               (first.(i)
               :: List.filteri
                    (fun j _ -> pooled.(j mod m) = i)
                    (Array.to_list extra))
           in
           Obs.Json.Obj
             [
               ("key", Obs.Json.Str key);
               ("doc", Obs.Json.Str doc);
               ("wall_s", Obs.Json.Float (median walls));
               ( "walls_s",
                 Obs.Json.Arr
                   (Array.to_list (Array.map (fun w -> Obs.Json.Float w) walls)) );
             ])
         entries)
  in
  write_bench ~out ~trials ~jobs json

let () =
  let or_die = function
    | Ok r -> r
    | Error msg ->
        Printf.eprintf "bench: %s\n" msg;
        exit 2
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let trials, args =
    or_die (Core.Cmdline.extract_int_flag ~names:[ "--trials" ] ~default:1 args)
  in
  let jobs, args =
    or_die (Core.Cmdline.extract_int_flag ~names:[ "-j"; "--jobs" ] ~default:1 args)
  in
  (* --out keeps partial-suite runs (e.g. `make bench-scale`) from
     clobbering the committed full-suite snapshot the perf gate diffs
     against. *)
  let out, keys =
    or_die (Core.Cmdline.extract_string_flag ~names:[ "--out" ] ~default:default_bench_path args)
  in
  if trials < 1 || jobs < 1 then begin
    Printf.eprintf "bench: --trials and -j must be at least 1\n";
    exit 2
  end;
  match keys with
  | [] | [ "all" ] -> run_selected ~out ~trials ~jobs registry
  | keys ->
      let unknown = List.filter (fun k -> not (List.exists (fun (key, _, _) -> key = k) registry)) keys in
      if unknown <> [] || List.mem "--help" keys || List.mem "help" keys then usage ()
      else
        run_selected ~out ~trials ~jobs
          (List.map (fun k -> List.find (fun (key, _, _) -> key = k) registry) keys)

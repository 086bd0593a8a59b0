(* Contention management (Sections 2-3 of the paper): a dining-backed
   contention manager boosts an obstruction-free transactional object from
   "commits only in isolation" to wait-free progress for every client.

     dune exec examples/stm_boosting.exe *)

open Dsim

let run ~with_cm ~horizon =
  let run = Core.Scenario.ctm ~seed:77L ~compute_ticks:6 ~clients:4 ~with_cm () in
  Engine.run run.Core.Scenario.engine ~until:horizon;
  run.Core.Scenario.clients

let summarize label stats ~horizon =
  Printf.printf "%s\n" label;
  Printf.printf "  %-8s %10s %10s %10s %22s\n" "client" "attempts" "commits" "aborts"
    "commits in last third";
  List.iter
    (fun (pid, (st : Ctm.Client.stats)) ->
      let late =
        List.length
          (List.filter (fun t -> t > horizon - (horizon / 3)) st.Ctm.Client.commit_times)
      in
      Printf.printf "  p%-7d %10d %10d %10d %22d\n" pid st.Ctm.Client.attempts
        st.Ctm.Client.commits st.Ctm.Client.aborts late)
    stats;
  let tot f = List.fold_left (fun acc (_, st) -> acc + f st) 0 stats in
  let commits = tot (fun st -> st.Ctm.Client.commits) in
  let aborts = tot (fun st -> st.Ctm.Client.aborts) in
  Printf.printf "  total: %d commits, %d aborts (%.0f%% success)\n\n" commits aborts
    (100.0 *. float_of_int commits /. float_of_int (max 1 (commits + aborts)))

let () =
  let horizon = 12000 in
  print_endline "=== Obstruction-free transactions, 4 contending clients ===\n";
  summarize "without contention manager (raw obstruction freedom):"
    (run ~with_cm:false ~horizon) ~horizon;
  summarize "with a WF-◇WX contention manager (boosted to wait-free):"
    (run ~with_cm:true ~horizon) ~horizon;
  print_endline
    "The manager may admit overlapping transactions during its finite\n\
     mistake-prone prefix, but the eventually exclusive suffix serialises\n\
     them: every client commits over and over — wait-freedom."

(* One checking pass. [Trace.Phases] keeps the first crash time and the
   transitions of one instance per pid; [finish] binds the horizon, and
   every verdict below reads that state in time linear in it: a
   two-pointer sweep per edge for exclusion, two pointers per neighbour
   for overtaking, one multi-source BFS for failure locality. *)

open Dsim

type violation = {
  at : Types.time;
  until : Types.time;
  p : Types.pid;
  q : Types.pid;
}

type run = { phases : Trace.Phases.t; horizon : Types.time }

let finish phases ~horizon = { phases; horizon }

(* For sorted [times] and windows [lo, hi) whose bounds never decrease,
   the number of times inside each window, by two forward-only pointers. *)
let counts_in times windows =
  let lo = ref 0 and hi = ref 0 in
  List.map
    (fun (a, b) ->
      while !lo < Array.length times && times.(!lo) < a do incr lo done;
      hi := max !hi !lo;
      while !hi < Array.length times && times.(!hi) < b do incr hi done;
      !hi - !lo)
    windows

module Run = struct
  let crash_time r pid = Trace.Phases.crash_time r.phases pid

  let correct r pid = crash_time r pid = None
  let instance r = Trace.Phases.instance r.phases

  let fold_timeline r ~pid f init =
    Trace.Phases.fold_timeline r.phases ~pid ~horizon:r.horizon f init

  let timeline r ~pid =
    List.rev (fold_timeline r ~pid (fun acc a b ph -> (a, b, ph) :: acc) [])

  (* Segments of [phase] still open at the horizon that began before
     [horizon - slack], in timeline order. *)
  let stuck r ~pid ~phase ~slack =
    fold_timeline r ~pid
      (fun acc a b ph ->
        if Types.phase_equal ph phase && b >= r.horizon && a < r.horizon - slack then a :: acc
        else acc)
      []
    |> List.rev

  let eating_starts r ~pid =
    let acc = ref [] in
    Trace.Phases.iter r.phases ~pid (fun at to_ ->
        if Types.phase_equal to_ Types.Eating then acc := at :: !acc);
    Array.of_list (List.rev !acc)

  let eat_count r ~pid = Array.length (eating_starts r ~pid)

  let live_eating_intervals r ~pid =
    let tc = Option.value (crash_time r pid) ~default:max_int in
    fold_timeline r ~pid
      (fun acc a b ph ->
        if Types.phase_equal ph Types.Eating && a < tc then (a, min b tc) :: acc else acc)
      []
    |> List.rev

  (* Each diner's live-eating intervals are sorted and disjoint, so the
     overlaps on an edge fall out of one merge of the two lists. *)
  let exclusion_violations r ~graph =
    let n = Graphs.Conflict_graph.n graph in
    let live = Array.init n (fun pid -> Array.of_list (live_eating_intervals r ~pid)) in
    let acc = ref [] in
    List.iter
      (fun (p, q) ->
        let xs = live.(p) and ys = live.(q) in
        let i = ref 0 and j = ref 0 in
        while !i < Array.length xs && !j < Array.length ys do
          let a1, b1 = xs.(!i) and a2, b2 = ys.(!j) in
          let lo = max a1 a2 and hi = min b1 b2 in
          if lo < hi then acc := { at = lo; until = hi; p; q } :: !acc;
          if b1 <= b2 then incr i else incr j
        done)
      (Graphs.Conflict_graph.edges graph);
    let cmp v1 v2 =
      match Int.compare v1.at v2.at with
      | 0 -> ( match Int.compare v1.p v2.p with 0 -> Int.compare v1.q v2.q | c -> c)
      | c -> c
    in
    List.sort cmp !acc

  let last_violation_time r ~graph =
    List.fold_left (fun _ v -> Some v.at) None (exclusion_violations r ~graph)

  (* An overlap violates the suffix if any part of it lies at or after
     [suffix_from], including one that began earlier. *)
  let eventual_weak_exclusion r ~graph ~suffix_from =
    let details =
      List.filter_map
        (fun v ->
          if v.until > suffix_from then
            Some
              (Printf.sprintf
                 "[%s] live neighbors p%d and p%d eating simultaneously during [%d,%d) (suffix \
                  from %d)"
                 (instance r) v.p v.q v.at v.until suffix_from)
          else None)
        (exclusion_violations r ~graph)
    in
    { Detectors.Properties.holds = details = []; details }

  let perpetual_weak_exclusion r ~graph = eventual_weak_exclusion r ~graph ~suffix_from:0

  (* Details are prepended pid by pid, as the report has always listed them. *)
  let stuck_details r ~n ~phase ~slack msg =
    let details = ref [] in
    for pid = 0 to n - 1 do
      if correct r pid then
        List.iter (fun a -> details := msg pid a :: !details) (stuck r ~pid ~phase ~slack)
    done;
    { Detectors.Properties.holds = !details = []; details = !details }

  let wait_freedom r ~n ~slack =
    stuck_details r ~n ~phase:Types.Hungry ~slack (fun pid a ->
        Printf.sprintf "[%s] correct p%d hungry since t=%d never ate (horizon %d)" (instance r) pid
          a r.horizon)

  let exiting_finite r ~n ~slack =
    stuck_details r ~n ~phase:Types.Exiting ~slack (fun pid a ->
        Printf.sprintf "[%s] correct p%d stuck exiting since t=%d" (instance r) pid a)

  (* A diner's hungry segments and a neighbour's eating starts are both
     sorted, so the starts inside each segment are counted by two
     pointers that only move forward. *)
  let max_overtaking r ~graph ~after =
    let n = Graphs.Conflict_graph.n graph in
    let starts = Array.init n (fun pid -> eating_starts r ~pid) in
    let worst = ref 0 in
    for p = 0 to n - 1 do
      if correct r p then begin
        let waits =
          fold_timeline r ~pid:p
            (fun acc a b ph ->
              if Types.phase_equal ph Types.Hungry && a >= after then (a, b) :: acc else acc)
            []
          |> List.rev
        in
        Graphs.Conflict_graph.iter_neighbors graph p (fun q ->
            worst := List.fold_left max !worst (counts_in starts.(q) waits))
      end
    done;
    !worst

  let starved r ~n ~slack =
    List.filter
      (fun pid -> correct r pid && stuck r ~pid ~phase:Types.Hungry ~slack <> [])
      (List.init n Fun.id)

  (* One BFS from every crashed process at once gives each victim its
     distance to the nearest crash. *)
  let failure_locality r ~graph ~slack =
    let n = Graphs.Conflict_graph.n graph in
    let dist = Array.make n (-1) in
    let queue = Queue.create () in
    for c = 0 to n - 1 do
      if not (correct r c) then begin
        dist.(c) <- 0;
        Queue.add c queue
      end
    done;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Graphs.Conflict_graph.iter_neighbors graph u (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v queue
          end)
    done;
    List.fold_left
      (fun acc pid ->
        match acc with
        | Some worst when dist.(pid) > 0 -> Some (max worst dist.(pid))
        | _ -> None)
      (Some 0) (starved r ~n ~slack)

  let fairness_index r ~pids =
    let xs = List.map (fun pid -> float_of_int (eat_count r ~pid)) pids in
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0 else s *. s /. (n *. s2)

  let hungry_wait_times r ~pid =
    fold_timeline r ~pid
      (fun acc a b ph ->
        if Types.phase_equal ph Types.Hungry && b < r.horizon then (b - a) :: acc else acc)
      []
    |> List.rev
end

(* ------------------------------------------------------------------ *)
(* Views: each runs the pass over a recorded trace. *)

let view trace ~instance ~horizon = finish (Trace.Phases.of_trace trace ~instance) ~horizon

let live_eating_intervals trace ~instance ~pid ~horizon =
  Run.live_eating_intervals (view trace ~instance ~horizon) ~pid

let exclusion_violations trace ~instance ~graph ~horizon =
  Run.exclusion_violations (view trace ~instance ~horizon) ~graph

let last_violation_time trace ~instance ~graph ~horizon =
  Run.last_violation_time (view trace ~instance ~horizon) ~graph

let eventual_weak_exclusion trace ~instance ~graph ~horizon ~suffix_from =
  Run.eventual_weak_exclusion (view trace ~instance ~horizon) ~graph ~suffix_from

let perpetual_weak_exclusion trace ~instance ~graph ~horizon =
  Run.perpetual_weak_exclusion (view trace ~instance ~horizon) ~graph

let wait_freedom trace ~instance ~n ~horizon ~slack =
  Run.wait_freedom (view trace ~instance ~horizon) ~n ~slack

let exiting_finite trace ~instance ~n ~horizon ~slack =
  Run.exiting_finite (view trace ~instance ~horizon) ~n ~slack

let eat_count trace ~instance ~pid = Run.eat_count (view trace ~instance ~horizon:0) ~pid

let max_overtaking trace ~instance ~graph ~after ~horizon =
  Run.max_overtaking (view trace ~instance ~horizon) ~graph ~after

let starved trace ~instance ~n ~horizon ~slack =
  Run.starved (view trace ~instance ~horizon) ~n ~slack

let failure_locality trace ~instance ~graph ~horizon ~slack =
  Run.failure_locality (view trace ~instance ~horizon) ~graph ~slack

let fairness_index trace ~instance ~pids =
  Run.fairness_index (view trace ~instance ~horizon:0) ~pids

let hungry_wait_times trace ~instance ~pid ~horizon =
  Run.hungry_wait_times (view trace ~instance ~horizon) ~pid

type event =
  | Transition of { instance : string; pid : Types.pid; from_ : Types.phase; to_ : Types.phase }
  | Suspect of { detector : string; owner : Types.pid; target : Types.pid }
  | Trust of { detector : string; owner : Types.pid; target : Types.pid }
  | Crash of { pid : Types.pid }
  | Note of { pid : Types.pid; label : string; info : string }

type entry = { at : Types.time; ev : event }

type t = {
  mutable buf : entry array;
  mutable len : int;
  mutable retain : bool;
  mutable subs : (entry -> unit) list; (* registration order *)
}

let dummy = { at = 0; ev = Crash { pid = -1 } }

let create ?(retain = true) () =
  { buf = Array.make 1024 dummy; len = 0; retain; subs = [] }

let subscribe t f = t.subs <- t.subs @ [ f ]

let set_retain t b = t.retain <- b
let retains t = t.retain

let append t ~at ev =
  (match t.subs with
  | [] -> ()
  | subs ->
      (* simlint: allow D011 — entry + fanout closure exist only when subscribers are registered *)
      let e = { at; ev } in
      (* simlint: allow D011 — see above: live-subscriber path, not the default hot configuration *)
      List.iter (fun f -> f e) subs);
  if t.retain then begin
    if t.len = Array.length t.buf then begin
      (* simlint: allow D011 — amortised doubling of the retained trace buffer *)
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    (* simlint: allow D011 — the retained entry IS the product; set retain:false to run allocation-free *)
    t.buf.(t.len) <- { at; ev };
    t.len <- t.len + 1
  end

let length t = t.len

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

let entries t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.buf.(i) :: !acc
  done;
  !acc

let filter t p =
  let acc = ref [] in
  iter t (fun e -> if p e then acc := e :: !acc);
  List.rev !acc

let crash_times t =
  let m = ref Types.Pidmap.empty in
  iter t (fun e ->
      match e.ev with
      | Crash { pid } when not (Types.Pidmap.mem pid !m) ->
          m := Types.Pidmap.add pid e.at !m
      | _ -> ());
  !m

module Phases = struct
  (* Each transition is one int, [time * 4 + phase code]: half the memory
     of two parallel arrays, and no pointers for the GC to scan. *)
  let code = function
    | Types.Thinking -> 0
    | Types.Hungry -> 1
    | Types.Eating -> 2
    | Types.Exiting -> 3

  let phase_of_code = [| Types.Thinking; Types.Hungry; Types.Eating; Types.Exiting |]

  (* [crashed] is the pid's first crash time, or -1. *)
  type log = { mutable buf : int array; mutable len : int; mutable crashed : Types.time }
  type t = { instance : string; mutable logs : log array (* indexed by pid *) }

  let create ~instance = { instance; logs = [||] }
  let instance t = t.instance

  let log t pid =
    let old = Array.length t.logs in
    if pid >= old then
      t.logs <-
        Array.init (max (pid + 1) (2 * old)) (fun i ->
            if i < old then t.logs.(i) else { buf = [||]; len = 0; crashed = -1 });
    t.logs.(pid)

  let observe t e =
    match e.ev with
    | Transition tr when tr.pid >= 0 && String.equal tr.instance t.instance ->
        let l = log t tr.pid in
        if l.len = Array.length l.buf then begin
          let buf = Array.make (max 16 (2 * l.len)) 0 in
          Array.blit l.buf 0 buf 0 l.len;
          l.buf <- buf
        end;
        l.buf.(l.len) <- (e.at * 4) + code tr.to_;
        l.len <- l.len + 1
    | Crash { pid } when pid >= 0 ->
        let l = log t pid in
        if l.crashed < 0 then l.crashed <- e.at
    | _ -> ()

  let of_trace trace ~instance =
    let t = create ~instance in
    iter trace (observe t);
    t

  let crash_time t pid =
    if pid >= 0 && pid < Array.length t.logs && t.logs.(pid).crashed >= 0 then
      Some t.logs.(pid).crashed
    else None

  let iter t ~pid f =
    if pid >= 0 && pid < Array.length t.logs then begin
      let l = t.logs.(pid) in
      for k = 0 to l.len - 1 do
        f (l.buf.(k) asr 2) phase_of_code.(l.buf.(k) land 3)
      done
    end

  let fold_timeline t ~pid ~horizon f init =
    let acc = ref init and current = ref Types.Thinking and since = ref 0 in
    iter t ~pid (fun at to_ ->
        if at > !since then acc := f !acc !since at !current;
        current := to_;
        since := at);
    if !since < horizon then f !acc !since horizon !current else !acc
end

let phase_timeline t ~instance ~pid ~horizon =
  Phases.fold_timeline (Phases.of_trace t ~instance) ~pid ~horizon
    (fun acc a b ph -> (a, b, ph) :: acc)
    []
  |> List.rev

let eating_intervals t ~instance ~pid ~horizon =
  Phases.fold_timeline (Phases.of_trace t ~instance) ~pid ~horizon
    (fun acc a b ph -> if Types.phase_equal ph Types.Eating then (a, b) :: acc else acc)
    []
  |> List.rev

let suspicion_flips t ~detector ~owner ~target =
  filter t (fun e ->
      match e.ev with
      | Suspect s -> String.equal s.detector detector && s.owner = owner && s.target = target
      | Trust s -> String.equal s.detector detector && s.owner = owner && s.target = target
      | _ -> false)
  |> List.map (fun e ->
         match e.ev with
         | Suspect _ -> (e.at, true)
         | Trust _ -> (e.at, false)
         | _ -> assert false)

let suspected_at t ~detector ~owner ~target ~at ~initially =
  let flips = suspicion_flips t ~detector ~owner ~target in
  List.fold_left (fun acc (ts, v) -> if ts <= at then v else acc) initially flips

let notes ?pid ?label t =
  filter t (fun e ->
      match e.ev with
      | Note n ->
          (match pid with Some p -> p = n.pid | None -> true)
          && (match label with Some l -> String.equal l n.label | None -> true)
      | _ -> false)

let pp_event fmt = function
  | Transition { instance; pid; from_; to_ } ->
      Format.fprintf fmt "[%s] p%d: %a -> %a" instance pid Types.pp_phase from_ Types.pp_phase to_
  | Suspect { detector; owner; target } ->
      Format.fprintf fmt "[%s] p%d suspects p%d" detector owner target
  | Trust { detector; owner; target } ->
      Format.fprintf fmt "[%s] p%d trusts p%d" detector owner target
  | Crash { pid } -> Format.fprintf fmt "CRASH p%d" pid
  | Note { pid; label; info } -> Format.fprintf fmt "note p%d %s %s" pid label info

let pp_entry fmt e = Format.fprintf fmt "t=%-6d %a" e.at pp_event e.ev

let dump ?limit fmt t =
  let n = match limit with Some l -> min l t.len | None -> t.len in
  for i = 0 to n - 1 do
    Format.fprintf fmt "%a@." pp_entry t.buf.(i)
  done;
  if n < t.len then Format.fprintf fmt "... (%d more)@." (t.len - n)

(* RFC-4180: a field containing a comma, double quote, CR or LF is wrapped
   in double quotes, with embedded quotes doubled. *)
let csv_field s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

let csv_row e =
  let f = Printf.sprintf in
  let q = csv_field in
  match e.ev with
  | Transition { instance; pid; from_; to_ } ->
      f "%d,transition,%s,%d,,%s->%s" e.at (q instance) pid (Types.phase_to_string from_)
        (Types.phase_to_string to_)
  | Suspect { detector; owner; target } -> f "%d,suspect,%s,%d,%d," e.at (q detector) owner target
  | Trust { detector; owner; target } -> f "%d,trust,%s,%d,%d," e.at (q detector) owner target
  | Crash { pid } -> f "%d,crash,,%d,," e.at pid
  | Note { pid; label; info } -> f "%d,note,%s,%d,,%s" e.at (q label) pid (q info)

let to_csv t =
  let buf = Buffer.create (4096 + (t.len * 32)) in
  Buffer.add_string buf "at,kind,scope,actor,peer,detail\n";
  iter t (fun e ->
      Buffer.add_string buf (csv_row e);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let write_csv t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))

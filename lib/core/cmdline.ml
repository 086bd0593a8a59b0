let parse_seed s =
  let s = String.trim s in
  if s = "" then Error "empty seed"
  else
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad seed %S (decimal or 0x-hex expected)" s)

let seed_to_string = Printf.sprintf "0x%Lx"

let parse_int ~what s =
  let s = String.trim s in
  if s = "" then Error (Printf.sprintf "empty %s" what)
  else
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad %s %S (integer expected)" what s)

let parse_float ~what s =
  let s = String.trim s in
  if s = "" then Error (Printf.sprintf "empty %s" what)
  else
    match float_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad %s %S (number expected)" what s)

let extract_flag ~parse ~names ~default args =
  let what = String.concat "/" names in
  let inline_value a =
    match String.index_opt a '=' with
    | Some i when List.mem (String.sub a 0 i) names ->
        Some (String.sub a (i + 1) (String.length a - i - 1))
    | _ -> None
  in
  let rec go acc v = function
    | [] -> Ok (v, List.rev acc)
    | a :: rest when List.mem a names -> (
        match rest with
        | x :: rest -> (
            match parse ~what x with Ok n -> go acc n rest | Error e -> Error e)
        | [] -> Error (Printf.sprintf "%s expects a value" a))
    | a :: rest -> (
        match inline_value a with
        | Some s -> (
            match parse ~what s with Ok n -> go acc n rest | Error e -> Error e)
        | None -> go (a :: acc) v rest)
  in
  go [] default args

let extract_int_flag ~names ~default args = extract_flag ~parse:parse_int ~names ~default args

let parse_string ~what s = if s = "" then Error (Printf.sprintf "empty %s" what) else Ok s

let extract_string_flag ~names ~default args =
  extract_flag ~parse:parse_string ~names ~default args

let extract_float_flag ~names ~default args =
  extract_flag ~parse:parse_float ~names ~default args

let extract_seed_flag ~default args =
  let rec go acc seed = function
    | [] -> Ok (seed, List.rev acc)
    | "--seed" :: v :: rest -> (
        match parse_seed v with Ok s -> go acc s rest | Error e -> Error e)
    | [ "--seed" ] -> Error "--seed expects a value"
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--seed=" -> (
        match parse_seed (String.sub a 7 (String.length a - 7)) with
        | Ok s -> go acc s rest
        | Error e -> Error e)
    | a :: rest -> go (a :: acc) seed rest
  in
  go [] default args

let check_crashes ~n crashes =
  match List.find_opt (fun (pid, _) -> pid < 0 || pid >= n) crashes with
  | None -> Ok ()
  | Some (pid, at) ->
      Error
        (Printf.sprintf "crash %d@%d: pid %d is out of range for n=%d (expected 0..%d)" pid at
           pid n (n - 1))

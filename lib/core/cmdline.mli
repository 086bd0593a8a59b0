(** Shared command-line conventions for the executables.

    Every entry point that takes a PRNG seed ([dinersim]'s subcommands,
    [stress/sweep.exe], the fuzz campaign driver) parses it through this one
    helper, so hexadecimal ([0x2f00d]) and decimal ([7]) spellings — plus
    OCaml's [0o]/[0b] and [_] separators — are accepted everywhere, and
    seeds printed by one tool ({!seed_to_string} prints canonical hex) are
    valid input to every other. *)

val parse_seed : string -> (int64, string) result
(** Accepts anything [Int64.of_string] does: decimal (optionally signed)
    and [0x]/[0o]/[0b] radix prefixes. The input is trimmed first. *)

val seed_to_string : int64 -> string
(** Canonical rendering, [0x%Lx] — round-trips through {!parse_seed}. *)

val extract_seed_flag : default:int64 -> string list -> (int64 * string list, string) result
(** Pull a [--seed V] or [--seed=V] flag (last occurrence wins) out of a raw
    argument list, returning the seed and the remaining arguments — for
    executables that do their own minimal argv handling. *)

val extract_int_flag :
  names:string list -> default:int -> string list -> (int * string list, string) result
(** Pull an integer flag out of a raw argument list: any spelling in
    [names] ([--jobs N], [--jobs=N], [-j N]), last occurrence wins.
    Returns the value and the remaining arguments. Used for the worker
    count ([-j]) and trial count flags of [stress/sweep.exe] and
    [bench/main.exe]. *)

val extract_string_flag :
  names:string list -> default:string -> string list -> (string * string list, string) result
(** Same contract for a string-valued flag (empty values rejected). Used
    for [bench/main.exe]'s [--out]. *)

val extract_float_flag :
  names:string list -> default:float -> string list -> (float * string list, string) result
(** Same contract for a float-valued flag (accepts anything
    [float_of_string] does). Used for [tools/benchdiff]'s
    [--threshold]. *)

val check_crashes : n:int -> (int * int) list -> (unit, string) result
(** [Ok ()] when every [(pid, tick)] crash names a process of an
    [n]-process run; otherwise an error naming the first bad pid and [n]. *)

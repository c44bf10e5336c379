(** Minimal JSON reader for the repo's own machine-written artifacts.

    [Imk_harness.Telemetry] writes [BENCH_<exp>.json] by hand (no JSON
    dependency) with {!escape}, the string escaper it shares with
    [Imk_vclock.Trace_export]; this is the matching reader, used by the bench
    [--baseline] regression gate and the round-trip tests. It is strict
    about what the telemetry writer emits — numbers must be finite,
    [\u] escapes must stay in the Latin-1 range — and is not a
    general-purpose JSON library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string
(** Raised by {!parse} and the accessors on anything this reader cannot
    represent faithfully. Never caught blind: a malformed bench artifact
    must fail the run that tried to read it. *)

val escape : string -> string
(** [escape s] is [s] as the body of a JSON string literal, the one
    escaper of the repo's writers ([Imk_harness.Telemetry],
    [Imk_vclock.Trace_export]): quote, backslash, newline, carriage
    return and tab get their short escapes, other control bytes [\u00XX],
    and every other byte (0x20 and up, 0x80-0xff included) passes through
    raw. {!parse} reads any escaped string back to [s]. *)

val parse : string -> t
(** [parse s] parses one JSON value spanning all of [s] (trailing
    whitespace allowed, trailing garbage rejected). *)

val member : string -> t -> t option
(** [member key v] looks [key] up if [v] is an object, else [None]. *)

val member_exn : string -> t -> t
(** Like {!member} but raises {!Malformed} when absent. *)

val to_float : t -> float
val to_int : t -> int
val to_string : t -> string
val to_list : t -> t list

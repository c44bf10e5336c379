(** Bench telemetry, schema 2, and its exact comparator.

    The virtual clock measures the {e simulated} boots; this module
    records what they measured — full distributions, not bare means —
    and compares two such records exactly. [bench/main.exe] writes one
    [BENCH_<exp>.json] per experiment:

    {v
    { "schema": 2,
      "experiment": "fig9",
      "runs": 20, "jobs": 1, "scale": 16, "functions": null,
      "wall_clock_s": 19.1,
      "boot_ms": [
        { "label": "aws/kaslr/lz4",
          "mean_ms": 85.4,
          "total":  { "n": 20, "mean_ms": 85.4, "min_ms": ..., "max_ms": ...,
                      "stddev_ms": ..., "p50_ms": ..., "p90_ms": ..., "p99_ms": ... },
          "phases": [
            { "phase": "in-monitor", "n": 20, "mean_ms": ..., ... },
            { "phase": "bootstrap", ... },
            { "phase": "decompression", ... },
            { "phase": "linux-boot", ... } ] } ] }
    v}

    Rows are the experiments' own {!Experiments.output.telemetry}, in
    nanoseconds as raw floats — never re-parsed out of the rendered
    table (lint.sh bans [float_of_string] in [lib/harness/] to keep that
    bug class dead). {!to_json} renders them as milliseconds; the
    per-row phase means sum to the headline [total] mean (up to runs in
    which a phase did not fire). Phases a boot path never enters are
    absent, not zero-filled. [functions] is [null] unless [--functions]
    shrank the kernels. Written by hand and read back with
    {!Imk_util.Minjson} — no JSON dependency.

    Virtual time is deterministic per seed and bit-identical for any
    [--jobs], so {!diff} has no tolerance: every bit of difference is
    reported. *)

val schema_version : int
(** 2. Schema 1 carried only a [mean_ms] per label; {!of_json} refuses
    it loudly rather than silently reading means as distributions. *)

type row = {
  label : string;
      (** stable row key: every key cell of the table row, numeric ones
          included, joined with ["/"] — e.g. ["aws/kaslr/lz4"],
          ["aws/kaslr/256M"]. Dropping numeric key cells (an old bug)
          made sweep points collapse onto one label and silently shadow
          each other in the JSON. *)
  total : Imk_util.Stats.summary;  (** nanoseconds, across the runs *)
  phases : (string * Imk_util.Stats.summary) list;
      (** per-phase nanosecond summaries ("in-monitor", "bootstrap",
          "decompression", "linux-boot" — or finer span labels for
          span-level experiments like fig5). Phases the boot path never
          entered are absent, not zero-padded; the present phases' means
          sum to [total.mean] up to per-run phase dropout. *)
}

type file = {
  schema : int;
  experiment : string;
  runs : int;
  jobs : int;
  scale : int;
  functions : int option;
  wall_clock_s : float;
  rows : row list;
}

val value_column : string list -> int option
(** Index of a rendered table's headline millisecond column: exactly
    ["total ms"], else ["boot ms"]/["create ms"], else the first header
    that is ["ms"] or ends in the token [" ms"]. A header merely
    {e ending} in ["ms"] (["atoms"], ["programs"]) does not match — an
    old fallback did, and read arbitrary columns as milliseconds. Used
    as a sanity check only (bench warns when a table has a millisecond
    column but the experiment provided no telemetry rows); values are
    never parsed out of cells. *)

val to_json :
  experiment:string ->
  runs:int ->
  jobs:int ->
  scale:int ->
  functions:int option ->
  wall_clock_s:float ->
  row list ->
  string
(** Render a schema-2 file, converting the nanosecond rows to
    milliseconds. Raises [Invalid_argument] on duplicate labels — two
    rows with the same label would silently shadow each other. *)

val of_json : string -> file
(** Parse a [BENCH_<exp>.json] written by {!to_json}, reading the
    milliseconds back as nanoseconds. The rendering rounds to 1e-6 ms,
    so compare a read-back file with another read-back file, never with
    the rows it was rendered from. Raises [Invalid_argument] on any
    schema other than {!schema_version} and
    {!Imk_util.Minjson.Malformed} on malformed input — a baseline that
    cannot be read faithfully must fail the gate, not pass it. *)

val diff_rows : baseline:row list -> current:row list -> string list
(** Every difference between two row lists, one line each: a label on
    only one side, a row whose phase list changed, or a summary field
    ([n], [mean], [min], [max], [stddev], [p50], [p90], [p99]) whose
    float differs in its bits ({!Int64.bits_of_float}) — a faster value
    is as much a difference as a slower one. [[]] means identical. *)

val diff : baseline:file -> current:file -> string list
(** {!diff_rows} on the files' rows, preceded by a line for each of
    [runs], [scale] and [functions] that differs. [jobs] and
    [wall_clock_s] are never compared: rows are bit-identical for any
    [--jobs], and wall clock is host time. The caller pairs files of the
    same experiment. *)

val write_file : string -> string -> unit
(** [write_file path contents] (re)writes [path] atomically enough for a
    bench artifact: open, write, close. *)

val read_file : string -> string
(** Read a whole file (for [--baseline]). *)

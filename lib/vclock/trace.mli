(** Perf-style span tracing of simulated boots.

    The paper instruments boots with port-IO tracepoints captured by perf
    and buckets time into four phases (§5.1): time in the monitor, time in
    the bootstrap loader before decompression, decompression itself, and
    the Linux boot proper. This module reproduces that methodology: code
    under simulation opens spans against a {!Clock.t}, and reports read the
    per-phase breakdown. *)

type phase =
  | In_monitor  (** inside the VMM before entering guest context *)
  | Bootstrap_setup  (** bootstrap loader work other than decompression *)
  | Decompression  (** kernel payload decompression *)
  | Linux_boot  (** from the jump to [startup_64] until init runs *)

val phase_name : phase -> string
(** [phase_name p] is the label used in reports ("In-Monitor", ...). *)

val all_phases : phase list
(** The four phases in presentation order. *)

type span = { label : string; phase : phase; start_ns : int; stop_ns : int }

val display_name : span -> string
(** [display_name s] is the label [s] was opened with. A span nested
    inside a span of the same phase is stored with a leading ["+"] (so
    {!phase_total} counts only top-level spans); readers that show or
    group spans by name use this instead of [s.label]. *)

type t

val create : Clock.t -> t
(** [create clock] is an empty trace recording against [clock]. *)

val clock : t -> Clock.t
(** [clock t] is the clock this trace records against. *)

val with_span : t -> phase -> string -> (unit -> 'a) -> 'a
(** [with_span t phase label f] runs [f], recording a span from the clock
    time at entry to the time at exit. Spans may nest; only leaf charging
    via {!Clock.advance} moves time, so nesting does not double-count as
    long as callers sum spans of a single phase level (reports use
    {!breakdown}, which relies on the convention that phases do not
    nest within each other). Exceptions propagate; the span is still
    recorded. *)

val tracepoint : t -> phase -> string -> unit
(** [tracepoint t phase label] records a zero-length marker, mirroring the
    paper's port-IO write tracepoints. *)

val spans : t -> span list
(** [spans t] lists recorded spans in the order they were recorded: a
    span when it closes, a tracepoint when it is placed. A nested span
    therefore comes before the span that encloses it. *)

val phase_total : t -> phase -> int
(** [phase_total t p] sums the duration of top-level spans of phase [p].
    Nested spans of the same phase are not double-counted. *)

val breakdown : t -> (phase * int) list
(** [breakdown t] is [phase_total] for each of {!all_phases}, in order. *)

val total : t -> int
(** [total t] is the overall traced duration (sum of the breakdown). *)

val reset : t -> unit
(** [reset t] clears the spans and resets the underlying clock. *)

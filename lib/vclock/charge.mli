(** Charging context: a trace, a cost model, and optional run-to-run
    jitter.

    Boot paths thread one of these through their phases instead of three
    separate values. When a jitter generator is present every payment is
    perturbed by ~1% gaussian noise, producing the min/max spread the
    paper's error bars show; without one, boots are exactly
    deterministic (the mode tests use).

    A context is either {e linear} (the default: payments advance the
    trace's clock directly, exactly as before the event core existed) or
    {e scheduled} ([~sched]: payments suspend the calling {!Sched}
    fiber, and the scheduler advances the timeline's clock at resume —
    including any queue wait behind other boots). Solo scheduled boots
    charge identical spans to linear ones (the event-core-solo oracle,
    DESIGN.md §8/§10). *)

type t

val create :
  ?jitter:Imk_entropy.Prng.t -> ?sched:Sched.timeline -> Trace.t -> Cost_model.t -> t
(** [create trace cm] is a linear context. With [~sched:tl] payments go
    through the event scheduler instead; [trace] must record against
    [Sched.timeline_clock tl] (checked, [Invalid_argument]) so spans and
    deadlines observe the scheduled time. *)

val fresh : ?jitter_seed:int64 -> ?sched:Sched.timeline -> unit -> Trace.t * t
(** [fresh ()] is a fresh boot clock: a new trace recording against a new
    linear {!Clock.t}, charged on {!Cost_model.default}. With [~sched:tl]
    the trace records against [Sched.timeline_clock tl] and the context is
    scheduled. With [~jitter_seed:s] payments are jittered from a
    generator seeded from [s], the same stream for the same seed; without
    it the clock is exact. *)

val trace : t -> Trace.t
val model : t -> Cost_model.t
val clock : t -> Clock.t

val set_deadline : t -> Deadline.t option -> unit
(** [set_deadline t d] attaches (or detaches, with [None]) a virtual-time
    budget. While attached, every {!span} close calls {!Deadline.check},
    so charging past the budget raises {!Deadline.Exceeded} at the next
    phase boundary. A fresh context has no deadline. *)

val deadline : t -> Deadline.t option

val span : t -> Trace.phase -> string -> (unit -> 'a) -> 'a
(** [span t phase label f] is [Trace.with_span] on the context's trace,
    followed by a {!Deadline.check} when a deadline is attached — phase
    boundaries are where overruns surface. In scheduled mode the span's
    instants come off the timeline's clock, so queue waits inside [f]
    stretch the span and deadlines still fire at span close. *)

val pay : t -> int -> unit
(** [pay t ns] advances the clock by [ns] (jittered when enabled). In
    scheduled mode the calling fiber suspends for [ns] instead — an
    uncontended charge, identical to linear for a solo boot. *)

val pay_using : t -> Sched.rclass -> int -> unit
(** [pay_using t r ns] is {!pay} through contended resource [r]: in
    scheduled mode the fiber occupies one unit of [r] for [ns] (queueing
    FIFO while [r] is saturated, which stretches the enclosing span); in
    linear mode it is exactly [pay t ns]. Boot paths classify their
    disk reads as {!Sched.Disk} and codec decompression as
    {!Sched.Decompress}. *)

val pay_span : t -> Trace.phase -> string -> int -> unit
(** [pay_span t phase label ns] opens a span just to charge [ns]. *)

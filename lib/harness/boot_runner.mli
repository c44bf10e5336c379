(** Repeated-boot measurement, following the paper's methodology (§5.1):
    warm the cache with five boots, then measure N boots, reporting the
    average with min/max. Cold-cache runs drop the caches before every
    measured boot instead. *)

type phase_stats = {
  in_monitor : Imk_util.Stats.summary;
  bootstrap : Imk_util.Stats.summary;
  decompression : Imk_util.Stats.summary;
  linux_boot : Imk_util.Stats.summary;
  total : Imk_util.Stats.summary;
}

val ms : Imk_util.Stats.summary -> float
(** Mean in milliseconds (summaries are collected in ns). Computed on the
    float mean directly — an earlier version truncated to whole ns first,
    biasing sub-ms phases downward. *)

val boot_many :
  ?warmups:int ->
  ?cold:bool ->
  ?jobs:int ->
  ?tap:(Imk_vclock.Trace.t -> unit) ->
  ?arena:Imk_memory.Arena.t ->
  ?plans:Imk_monitor.Plan_cache.t ->
  runs:int ->
  cache:Imk_storage.Page_cache.t ->
  Imk_monitor.Vm_config.t ->
  phase_stats
(** [boot_many ~runs ~cache vm] performs [warmups] (default 5)
    unrecorded boots, then [runs] recorded ones of [vm], each with its
    own seed ({!warm_seed}, {!run_seed}) and jittered costs. [cold]
    (default false) drops the page cache before every boot, including
    warmups (which then serve only to surface errors early). Raises
    whatever the boot raises — a failing configuration should fail the
    experiment.

    The boots are one {!Campaign.run} (the first boot primes [cache]),
    so the returned [phase_stats] are bit-identical for any [jobs]
    (default 1). [arena] recycles guest memory across the boots; [plans]
    shares a boot-plan cache — results are bit-identical with or without
    either, only host wall clock changes. [tap] sees every boot's trace.
    Phases that never ran report [Imk_util.Stats.empty] (n = 0) rather
    than a fabricated zero sample. *)

type contended_stats = {
  per_boot : phase_stats;
      (** every boot of every run, aggregated in (run, slot) order —
          spans include queue waits, so contention shows up here *)
  makespan : Imk_util.Stats.summary;
      (** per-run shared-timeline span (last event's virtual time) *)
}

val boot_contended :
  ?warmups:int ->
  ?tap:(Imk_vclock.Trace.t -> unit) ->
  ?plans:Imk_monitor.Plan_cache.t ->
  arena:Imk_memory.Arena.t ->
  capacities:int * int ->
  n:int ->
  runs:int ->
  cache:Imk_storage.Page_cache.t ->
  Imk_monitor.Vm_config.t ->
  contended_stats
(** [boot_contended ~arena ~capacities ~n ~runs ~cache vm] boots [n]
    guests concurrently on one shared {!Imk_vclock.Sched} timeline per
    run, with [capacities = (disk_capacity, decompress_slots)] — queue
    waits stretch each boot's charged spans (DESIGN.md §10). [warmups]
    (default 5) sequential boots prime the shared cache; each run then
    gets a private [Page_cache.clone], a fresh scheduler and
    {!contend_seed}-pure seeds. Runs go through {!Campaign.run} on one
    domain: a run holds [n] guests live at once, each borrowed from
    [arena] for the length of its boot. *)

val warm_seed : int -> int64
(** Seed of warmup boot [i] (1-based) — a pure function of the index,
    one leg of the [jobs]-invariance contract. *)

val run_seed : int -> int64
(** Seed of recorded run [i] (1-based), shared by plain and supervised
    campaigns so they agree on per-run seeds. *)

val contend_seed : run:int -> slot:int -> int64
(** Seed of guest [slot] (0-based) in contended run [run] (1-based) — a
    pure function of both, the contended leg of the jobs-invariance
    contract. *)

val boot_once :
  ?jitter:bool ->
  ?tap:(Imk_vclock.Trace.t -> unit) ->
  ?mem:Imk_memory.Guest_mem.t ->
  ?plans:Imk_monitor.Plan_cache.t ->
  seed:int64 ->
  cache:Imk_storage.Page_cache.t ->
  Imk_monitor.Vm_config.t ->
  Imk_vclock.Trace.t * Imk_monitor.Vmm.boot_result
(** One instrumented boot, returning the full trace (for span-level
    analyses like Figure 5) and the result (for layout-dependent
    analyses like LEBench and the attack simulation). With [mem] (a
    caller-owned buffer, typically inside an
    [Imk_memory.Arena.with_buffer] bracket) the boot runs in place and
    the caller keeps ownership either way. [tap] is offered the finished
    trace; it only observes. *)

val fresh_charge :
  ?jitter_seed:int64 -> unit -> Imk_vclock.Trace.t * Imk_vclock.Charge.t
(** A fresh linear virtual clock with its trace and charge — jittered
    from [jitter_seed] the way every seeded boot is, exact without it. *)

val spans_by_label : Imk_vclock.Trace.t -> (string * int) list
(** Aggregate span durations by label, for breakdowns finer than the
    four phases. *)

(** Supervised boots: classify failures, retry transients, degrade
    gracefully — all on the virtual clock.

    A supervisor wraps one boot attempt the way a production launcher
    wraps Firecracker: every exception the boot path can raise on bad
    input is classified into the {!Imk_fault.Failure} taxonomy (an
    unclassifiable exception is re-raised — it is a programming error
    and must not be absorbed), transients are retried with bounded
    exponential backoff, and persistent-fault degradations are built
    in:

    - a corrupt relocation table is re-derived from the kernel ELF
      (the Figure 8 extraction path) and the boot retried;
    - a corrupt snapshot falls back to a supervised cold boot;
    - an attempt that charges past its {!Imk_vclock.Deadline} budget is
      aborted at the next phase boundary and retried once with a fresh
      budget (for a snapshot restore, the retry is the cold-boot
      fallback).

    Campaign-scale policy lives in a {!fleet}: a per-kernel-config
    circuit breaker (open after [breaker_threshold] consecutive
    persistent failures; while open, boots are short-circuited for a
    small charged cost; after [breaker_cooldown] rejections a half-open
    probe boot decides whether to close it) and a campaign-level retry
    budget (once dry, transients fail fast instead of spinning through
    a storm). A fleet is deliberately sequential state: share one per
    cell of a campaign and run that cell's boots in order — parallelism
    belongs {e between} cells ({!Campaign.map}), which is how the
    resilience experiment stays bit-identical for any [--jobs].

    None of the recovery work is free: backoff, re-derivation, fallback
    boots, short-circuits and probes are charged to the same virtual
    clock as the boot itself, each in its own labelled span — and the
    report carries the same intervals as [recovery], with the checked
    invariant that they sum to [total_ns] minus the successful attempt.

    A [?tap] is offered every finished supervised boot's full trace,
    recovery spans included, exactly like a plain boot's. *)

type ctx = {
  cache : Imk_storage.Page_cache.t;  (** the run's (private) page cache *)
  inject : (string -> unit) option;
      (** armed transient hook ({!Imk_fault.Inject.armed}), if any *)
  plans : Imk_monitor.Plan_cache.t option;
      (** shared boot-plan cache; safe across runs and corruptions —
          plans are content-addressed, so a corrupted image can never
          resolve to a pristine image's plan (or vice versa) *)
}

val plain_ctx : ?plans:Imk_monitor.Plan_cache.t -> Imk_storage.Page_cache.t -> ctx
(** A context with no fault hook. *)

type report = {
  outcome : (Imk_guest.Runtime.verify_stats, Imk_fault.Failure.t) result;
      (** verify-green stats, or the typed failure the boot ended on *)
  attempts : int;  (** boot attempts made (snapshot restore counts) *)
  events : Imk_fault.Failure.event list;
      (** recovery actions, in occurrence order *)
  total_ns : int;  (** virtual time spent, recovery included *)
  recovery : (string * int) list;
      (** labelled recovery intervals in occurrence order
          ("failed-attempt", "retry-backoff", "rederive-relocs",
          "failed-restore", "breaker-short-circuit"), measured on the
          virtual clock. Invariant, enforced at report construction:
          their sum is [total_ns] minus the successful attempt's cost
          (exactly [total_ns] when the outcome is an [Error]) — the
          report can never drift from the [--trace] timeline. *)
}

val default_max_retries : int

val backoff_base_ns : int
(** First retry's backoff; each further retry doubles it. *)

val short_circuit_ns : int
(** Nominal cost of rejecting a boot while the breaker is open. *)

(** Supervision policy for a campaign cell. *)
type policy = {
  max_retries : int;  (** per-boot transient retries *)
  attempt_budget_ns : int option;
      (** virtual-time deadline per boot attempt (and per snapshot
          restore); [None] disables deadlines *)
  breaker_threshold : int;
      (** consecutive persistent failures that open the breaker *)
  breaker_cooldown : int;
      (** boots short-circuited while open before a half-open probe *)
  retry_budget : int;  (** campaign-wide transient retries *)
}

val default_policy : policy
(** [max_retries = default_max_retries], no deadline, threshold 3,
    cooldown 2, unbounded retry budget. *)

type fleet
(** Mutable campaign state for one kernel config: the circuit breaker
    and the remaining retry budget. Not thread-safe — one fleet per
    sequentially-executed campaign cell. *)

val fleet : ?policy:policy -> unit -> fleet

val breaker_trips : fleet -> int
(** Times the breaker has opened ([Closed] → [Open] transitions). *)

val retries_left : fleet -> int

val breaker_state_name : fleet -> string
(** "closed", "open" or "half-open" (open with the cooldown spent, so
    the next boot is the probe). *)

val supervise :
  ?jitter:bool ->
  ?tap:(Imk_vclock.Trace.t -> unit) ->
  ?arena:Imk_memory.Arena.t ->
  ?fleet:fleet ->
  ?max_retries:int ->
  seed:int64 ->
  ctx:ctx ->
  Imk_monitor.Vm_config.t ->
  report
(** [supervise ~seed ~ctx vm] runs one supervised boot on a fresh
    virtual clock ([seed] fixes the config seed and the jitter stream,
    exactly like [Boot_runner.boot_once]). With [?arena], every attempt
    runs inside an {!Imk_memory.Arena.with_buffer} bracket, so failed
    and deadline-aborted attempts hand their guest memory straight back
    to the pool, scrubbed. With [?fleet], the boot passes through the
    cell's circuit breaker (it may be short-circuited or run as the
    half-open probe), draws per-attempt deadlines from the fleet's
    policy, and consumes the campaign retry budget; [?max_retries]
    defaults to the fleet's policy when one is given. *)

val supervise_snapshot :
  ?jitter:bool ->
  ?tap:(Imk_vclock.Trace.t -> unit) ->
  ?arena:Imk_memory.Arena.t ->
  ?fleet:fleet ->
  ?max_retries:int ->
  seed:int64 ->
  ctx:ctx ->
  snapshot_path:string ->
  working_set_pages:int ->
  Imk_monitor.Vm_config.t ->
  report
(** [supervise_snapshot ~seed ~ctx ~snapshot_path ~working_set_pages vm]
    restores from a serialized snapshot on the run's disk. A typed
    restore failure (CRC mismatch, truncation — or, with a fleet
    policy budget, a deadline overrun on a cold snapshot read) is
    recorded as a [Fell_back_to_cold_boot] event and the supervisor
    boots [vm] cold on the same clock — the report's [total_ns] is the
    price of the failed restore plus the fallback. *)

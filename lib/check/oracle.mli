(** The differential-oracle catalogue (DESIGN.md §8).

    Each oracle boots one {!Point} through two configurations that the
    repo's invariants promise are equivalent, and compares the
    observables the promise covers — layout bytes for path equivalence,
    exact trace spans where the invariant says "telemetry is
    bit-identical". An oracle returns the {e first} divergence as text; a
    campaign counts and a shrinker minimizes them.

    An oracle that cannot fail is not evidence: {!cross_path} takes a
    [mutate] switch that plants an off-by-one in one side's extracted
    image, and the campaign's [--mutate] mode checks the catalogue
    reports it caught. *)

type outcome = Pass | Divergence of string

type report = {
  outcome : outcome;
  boot_ns : (string * int) list;
      (** virtual-clock total of each boot the comparison ran, in the
          order run — deterministic, so campaign telemetry built from it
          is bit-identical for any jobs fan-out. Empty when a boot died
          before completing. *)
}

type t = {
  id : string;  (** stable row id, e.g. "cross-path" *)
  doc : string;  (** the invariant under test, one line *)
  run : Env.images -> Point.t -> report;
}

val cross_path : ?mutate:bool -> unit -> t
(** Monitor ≡ bootstrap loader: boots the point's vmlinux through
    in-monitor randomization and its bzImage through the self-
    bootstrapping loader, on one pinned {!Imk_randomize.Choices}
    schedule, and asserts byte-level layout equivalence (modulo the
    physical base, which only the monitor randomizes). [mutate] plants
    the sensitivity fault described above. *)

val event_core_solo : ?mutate:bool -> unit -> t
(** Linear clock ≡ event core (solo): the point's bzImage booted once on
    the plain linear clock and once as a single {!Imk_vclock.Sched}
    fiber must charge exactly the same spans — labels, phases, order and
    instants — and produce the same layout bytes. The bz path routes the
    point's codec through the scheduler's decompress slot and every
    image read through its disk-bandwidth unit, so all scheduled-mode
    charge classes are exercised. [mutate] plants a one-event
    reordering (two adjacent spans swapped) on the event-core side,
    which the exact comparison must report. *)

val plan_cache : t
(** Cache-on ≡ cache-off: the second boot of an image through a shared
    {!Imk_monitor.Plan_cache} must produce exactly the trace spans and
    layout of an uncached second boot. Also divergent if the cache was
    never actually hit — a vacuous pass is no evidence. *)

val snapshot_cold : t
(** Snapshot ≡ cold boot: capture, serialize, reload and restore a
    booted guest; the restored clone's layout must equal the original's
    bit for bit (restores inherit the snapshot's randomization — the
    §7 trade the snapshot module quantifies). *)

val arena_fresh : t
(** Recycled ≡ fresh memory: a boot into an arena-recycled buffer
    (previously dirtied by a different boot) must match a boot of the
    same point into a fresh [Guest_mem.create] — spans and layout.
    Divergent if the arena never actually recycled. *)

val catalogue : mutate:bool -> t list
(** The full catalogue, cross-path first. *)

val of_run :
  (Env.images ->
  Point.t ->
  note:(string -> Imk_vclock.Trace.t -> unit) ->
  outcome) ->
  Env.images ->
  Point.t ->
  report
(** Wrap a comparison body with the catalogue's exception guard and
    boot-telemetry collector: [note label trace] records a completed
    boot's virtual total, and a body that raises becomes a [Divergence]
    carrying the exception text instead of killing the campaign. For
    harness-side oracles (e.g. the jobs-fanout row) that cannot live
    below [boot_many]. *)

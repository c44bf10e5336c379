(** The differential-oracle catalogue (DESIGN.md §8).

    Each oracle boots one {!Point} through two configurations that the
    repo's invariants promise are equivalent, and compares the
    observables the promise covers — layout bytes for path equivalence,
    exact trace spans where the invariant says "telemetry is
    bit-identical". An oracle returns the {e first} divergence as text; a
    campaign counts and a shrinker minimizes them.

    An oracle that cannot fail is not evidence: {!cross_path} and
    {!event_core_solo} each carry a planted fault, compared on every run
    from the same two boots as the clean comparison (the plant only
    changes what the comparison reads), and the campaign checks that
    every plant is caught. *)

type outcome = Pass | Divergence of string

type report = {
  outcome : outcome;
  planted : outcome option;
      (** the same comparison with the oracle's plant applied to one
          side; [None] for oracles without a plant. A side that raised
          makes both outcomes the [raised: …] divergence. *)
  boot_ns : (string * int) list;
      (** virtual-clock total of each boot the comparison ran, in the
          order run — deterministic, so campaign telemetry built from it
          is bit-identical for any jobs fan-out. Empty when a boot died
          before completing. *)
}

type t = {
  id : string;  (** stable row id, e.g. "cross-path" *)
  doc : string;  (** the invariant under test, one line *)
  plant : string option;
      (** the planted fault's name, e.g. "off-by-one"; [None] for
          oracles without a plant *)
  run : Env.images -> Point.t -> report;
}

val cross_path : t
(** Monitor ≡ bootstrap loader: boots the point's vmlinux through
    in-monitor randomization and its bzImage through the self-
    bootstrapping loader, on one pinned {!Imk_randomize.Choices}
    schedule, and asserts byte-level layout equivalence (modulo the
    physical base, which only the monitor randomizes). Its plant, the
    "off-by-one", adds one to a middle byte of the loader side's
    image. *)

val event_core_solo : t
(** Linear clock ≡ event core (solo): the point's bzImage booted once on
    the plain linear clock and once as a single {!Imk_vclock.Sched}
    fiber must charge exactly the same spans — labels, phases, order and
    instants — and produce the same layout bytes. The bz path routes the
    point's codec through the scheduler's decompress slot and every
    image read through its disk-bandwidth unit, so all scheduled-mode
    charge classes are exercised. Its plant, the "event reordering",
    swaps two adjacent spans on the event-core side, which the exact
    comparison must report. *)

val plan_cache : t
(** Cache-on ≡ cache-off: the second boot of an image through a shared
    {!Imk_monitor.Plan_cache} must produce exactly the trace spans and
    layout of an uncached second boot — for the point's vmlinux (direct
    boot) and for its bzImage (loader boot), whose cached warm boot reads
    the payload the plan decoded once instead of decoding it. Likewise
    the second restore of the vmlinux boot's snapshot, loaded through
    the cache ({!Imk_monitor.Snapshot.load_cached}, a clone of the chunk
    image the first restore built) or not, must charge the same spans
    and restore the same layout and physical bytes. Also divergent if
    the cache was never actually hit, or if the bzImage's warm boot did
    not find its payload decoded, or the warm restore its snapshot — a
    vacuous pass is no evidence. Only the vmlinux boots are noted in
    [boot_ns]. *)

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

val catalogue : t list
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
    below [boot_many]; such an oracle has no plant. *)

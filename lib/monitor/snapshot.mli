(** VM snapshots — the zygote alternative to fresh boots (§7).

    Checkpoint/restore platforms (SAND, Catalyzer-style zygotes, the JVM
    warm-clone lineage the paper surveys) avoid boot cost by restoring a
    memory image instead of booting. The catch the paper highlights:
    every restored instance inherits the snapshot's address-space layout,
    nullifying ASLR — unless a pool of differently-randomized snapshots
    is maintained (Morula), with its own complexity and memory cost.

    This module implements both sides of that trade so the harness can
    quantify it: serialize a booted guest, restore clones of it, and
    model restore cost as the copy-on-write mapping setup plus the
    first-touch faults of the working set — far cheaper than a boot, and
    exactly as randomized as the one snapshot it came from.

    A restore is a real copy-on-write clone on the host too. The first
    restore of a snapshot builds its chunk image
    ({!Imk_memory.Guest_mem.image}) from the frames and keeps it in the
    snapshot, a write-once memo set by compare-and-set; every restore
    then clones it with {!Imk_memory.Guest_mem.of_image}, sharing its
    chunks until the clone writes one. The image stays resident as long
    as the snapshot does. *)

type t

exception Corrupt of string
(** A serialized snapshot failed validation in {!load}: bad magic or
    version, truncation, or a CRC32 mismatch anywhere in the blob. Typed
    so a supervisor can fall back to a cold boot instead of restoring
    garbage into a guest. *)

val capture : Vmm.boot_result -> t
(** [capture result] snapshots a booted guest: its dirty ranges, framed,
    plus the boot parameters. Everything outside the frames is zero by
    the {!Imk_memory.Guest_mem} invariant, so the frames reconstruct the
    image exactly while the snapshot costs memory proportional to what
    the boot wrote, not to guest size. Capture reads through the
    tracker's read-only accessors: the source VM remains usable and its
    dirty extent — hence its next {!Imk_memory.Arena} scrub cost — is
    exactly what it would have been without the capture. *)

val encoded_bytes : t -> int
(** Serialized size (what a snapshot costs to keep on disk or in a
    zygote pool) — header + dirty-range frames + trailer, far below
    guest size for a typical boot. *)

val layout_seed_of : t -> int
(** A fingerprint of the captured layout (virtual base ⊕ a hash of the
    text pages) — distinct snapshots in a Morula-style pool must differ
    on it. *)

val serialize : t -> bytes
(** [serialize t] is the byte-exact on-disk form (version 2): a fixed
    header with the boot parameters and guest size, a frame count, the
    dirty-range frames as [(pa, len, data)], and a CRC32 trailer over
    everything before it. [load ~config (serialize t)] round-trips. *)

val load : config:Vm_config.t -> bytes -> t
(** [load ~config b] validates and decodes {!serialize}'s output,
    rehydrating against the supplied VM config (configs are host-side
    objects, not serialized state). Raises {!Corrupt} on bad magic or
    version, truncation, length inconsistencies, frames that are
    unsorted, overlapping or outside the guest, a CRC32 mismatch — a
    single flipped bit anywhere in [b] is caught — or a guest size that
    differs from the header's boot-parameter memory size or from
    [config]'s [mem_bytes]: a snapshot restores only into a guest of the
    size it was captured from. Frame lengths are validated against the
    remaining blob before any allocation. The decoded frames are views
    into [b], which must not be mutated afterwards. *)

val load_cached :
  Plan_cache.t option -> path:string -> config:Vm_config.t -> bytes -> t
(** [load_cached plans ~path ~config b] is [load ~config b] with the
    config-free decoded snapshot — its frames and its chunk image once a
    restore built it — kept in [plans] under [path] and content-addressed
    like a boot plan ({!Plan_cache.cached}): the same blob object hits
    without a CRC, a content-equal one hits after one, and any other
    content decodes afresh, its failure stored nowhere. The config check
    runs on every call. [None] is [load]. *)

val image_built : t -> bool
(** Whether this snapshot's chunk image is built, so that a restore only
    clones it — test and oracle observability. *)

val restore :
  Imk_vclock.Charge.t -> t -> working_set_pages:int -> Vmm.boot_result
(** [restore charge t ~working_set_pages] clones the snapshot into a
    copy-on-write guest. Charged work: re-establishing the copy-on-write
    mapping (per-page bookkeeping over the kernel image) and faulting in
    [working_set_pages] pages — the restore path's real costs, orders of
    magnitude below a boot. On the host, the first restore of [t] builds
    its chunk image and every restore shares it: the clone reads, dirties
    and captures exactly like a fresh guest the frames were written
    into, and its writes never reach the image. The restored guest
    passes the same integrity verification as a booted one (the clone is
    exact — including its randomization). *)

val verify_restored : Vmm.boot_result -> Imk_guest.Runtime.verify_stats
(** Run the guest's integrity walk on a restored clone. *)

(** Guest physical memory.

    The memory a VMM allocates for a microVM, addressed by guest-physical
    address starting at 0. It is stored as a table of fixed
    {!chunk_size} (64 KiB) storage chunks, each allocated on its first
    write: a boot writes a few MiB of a 256 MiB guest, so {!create}
    allocates only the table, and a guest allocates and zeroes only the
    64 KiB neighbourhoods of the bytes it writes. The storage chunk is
    not the relocation run: batch writers choose their own runs (a 2 MiB
    relocation run in [Kaslr.apply]), and {!with_validated_range} splits
    a run's store lookups at storage-chunk edges. An absent chunk is one
    shared, read-only, all-zero chunk, so reads never ask whether a chunk
    is there; only writes materialize one (and {!zero} on an absent chunk
    allocates nothing). {!scrub} moves every materialized chunk to the
    guest's spare list, from which the next first writes take their
    chunks, so a recycled guest stops allocating after warm-up wherever
    the next boot's writes land. Only the last chunk may be short, so
    guests smaller than a chunk work too.

    A chunk is either owned by the guest or {e shared}: read-only and
    owned by someone else — the all-zero chunk, or a chunk of a frozen
    {!image} that copy-on-write clones ({!of_image}) share. The
    invariant: a shared chunk is never written. The first write to one
    copies it into a private chunk (a spare, or a fresh one); {!scrub}
    drops a shared chunk back to all-zero without filling it and never
    parks it on the spare list. A clone shares its image's chunk table
    too, until its first write copies it.

    The mutators are {!write_bytes}, {!write_sub}, {!set_u32},
    {!set_addr}, {!zero} and {!with_validated_range} runs; each one
    materializes (or copies) its chunks first and widens the dirty
    extent by the bytes it writes.

    All accesses are bounds-checked: an out-of-range access is a guest
    triple-fault in real life and a typed error here. The module is pure
    data movement; boot paths charge virtual-clock costs separately
    (DESIGN.md §4.1), so chunking changes no virtual time. *)

type t

val chunk_size : int
(** 64 KiB: the storage chunk, the unit of allocation. A
    {!with_validated_range} run may span several. *)

exception Fault of string
(** Raised on out-of-bounds access, with a description of the access. *)

val create : size:int -> t
(** [create ~size] is all-zero guest memory of [size] bytes; no chunk is
    allocated until it is written. *)

val size : t -> int

val dirty_extent : t -> (int * int) option
(** [dirty_extent t] is the smallest [(lo, hi)] half-open byte range
    covering every write since creation or the last {!scrub}, or [None]
    if nothing was written. Internally writes are tracked as a small
    bounded set of ranges (so a boot that dirties bootinfo pages low in
    the guest and a randomized image high in it does not dirty the gap);
    this returns their envelope. *)

val scrub : t -> unit
(** [scrub t] zeroes every dirty range and resets the tracker, restoring
    the all-zero state of a fresh [create] while touching only the bytes
    a previous user actually wrote — the cheap half of recycling guest
    memory through {!Arena}. It then moves every owned full chunk to the
    spare list, so the next writes reuse them instead of allocating, and
    turns every shared chunk back into the all-zero chunk (neither
    filled nor parked: it is not the guest's to write). Real work only;
    virtual-clock zeroing charges are the boot path's business, exactly
    as for [create]. *)

type image
(** A frozen guest-memory image: chunks that any number of clones share
    read-only, across domains too. Nothing writes an image once built. *)

val image : size:int -> (int * bytes * int * int) list -> image
(** [image ~size frames] is the image of a [size]-byte guest that is
    all zero except for [frames], each [(pa, src, src_off, len)] holding
    [src]'s bytes [\[src_off, src_off+len)] at [pa], written in list
    order — the guest {!write_sub} of each frame into a fresh {!create}
    leaves, chunks allocated only under frames. Raises like {!create}
    and {!write_sub}. *)

val of_image : image -> t
(** [of_image img] is a copy-on-write clone of [img]: it reads as the
    image, shares every chunk with it until the clone's first write to
    that chunk. It shares the image's chunk table too, until its first
    write of any chunk copies the table, so making one costs the same
    whatever the guest's size. Its dirty ranges are those
    the image's frames dirtied, so {!fold_dirty_ranges}, {!scrub} and a
    snapshot capture see exactly what writing the frames into a fresh
    guest would have left. Writes, {!zero} and {!scrub} on a clone never
    reach the image or another clone. *)

val write_bytes : t -> pa:int -> bytes -> unit
(** [write_bytes t ~pa b] copies all of [b] to physical address [pa]. *)

val write_sub : t -> pa:int -> src:bytes -> src_off:int -> len:int -> unit

val read_bytes : t -> pa:int -> len:int -> bytes

val zero : t -> pa:int -> len:int -> unit

val valid : t -> pa:int -> len:int -> bool
(** [valid t ~pa ~len] is true when [\[pa, pa+len)] lies inside guest
    memory — the test a batch caller runs before committing to
    {!with_validated_range}. When it fails, the caller takes the run a
    site at a time: an in-guest site through a copy ({!blit_to_bytes},
    then {!write_sub}), and a site outside the guest through the checked
    accessor of its width, whose fault names the site. *)

val with_validated_range :
  t -> pa:int -> len:int -> (bytes -> int -> unit) -> unit
(** [with_validated_range t ~pa ~len f] bounds-checks and dirties
    [\[pa, pa+len)] once, then calls [f store base] once per storage
    chunk the range overlaps, in address order, with that chunk's store
    and guest-physical base address, for direct [Imk_util.Byteio] access
    at [pa - base] — one check + one dirty-tracker update for a whole run
    of nearby sites instead of one per access; storage-chunk edges only
    split the store lookups. An empty range calls [f] never. The contract
    is the audited unsafe-after-validation pattern (DESIGN.md §4): [f]
    must confine every write to the validated range, or the dirty-extent
    tracker goes dishonest and scrubbed chunks come back with stale
    bytes. A value straddling a storage-chunk edge is in neither store
    whole; [f] may patch it on a copy ({!blit_to_bytes}, then
    {!write_sub}, which dirties only the value's bytes). Raises
    {!Fault} if the range is out of bounds. Reads outside the range are
    harmless to the tracker but get no bounds protection beyond the
    chunk's own. *)

val view : t -> pa:int -> len:int -> bytes
(** [view t ~pa ~len] is a store holding the [len]-byte record
    [\[pa, pa+len)], to be read at offset [pa land (chunk_size - 1)]:
    the store of the storage chunk holding the record, or, for a record
    that straddles a chunk edge, a per-domain bounce buffer of
    [chunk_size + 32] bytes that the record is copied into at that
    offset. One bounds check for the whole record and no allocation —
    the read side of {!with_validated_range}. Raises {!Fault} if the
    record leaves guest memory, with {!read_bytes}'s message for the
    same range, and [Invalid_argument] unless [1 <= len <= 32].

    The view is read-only: nothing may write through it. It may be the
    shared zero chunk or a chunk of a frozen {!image}, and a write
    there would reach every guest sharing it and bypass the dirty
    tracker. It stays valid until the next write to [t] — a write may
    copy the chunk ({!of_image} clones, the zero chunk), so a view taken
    before it can read stale bytes after it — and, for a straddling
    record, until the next [view] on the same domain, which may reuse
    the bounce buffer. Decode a record before taking the next one. *)

val get_u8 : t -> pa:int -> int
val get_u32 : t -> pa:int -> int
val set_u32 : t -> pa:int -> int -> unit
val get_u32_signed : t -> pa:int -> int
val get_addr : t -> pa:int -> int
val set_addr : t -> pa:int -> int -> unit

val get_i64 : t -> pa:int -> int64
(** [get_i64 t ~pa] reads 8 raw bytes without the native-int range check
    of {!get_addr} — for probing memory that may hold arbitrary data
    (e.g. an attacker guessing at function magics). *)

val fold_dirty_ranges :
  t -> init:'a -> f:('a -> lo:int -> hi:int -> 'a) -> 'a
(** [fold_dirty_ranges t ~init ~f] folds [f] over the dirty ranges as
    sorted, merged half-open [\[lo, hi)] intervals — every byte written
    since creation or the last {!scrub}, each seen exactly once. Read
    only: the tracker is not modified, so capturing a snapshot from the
    fold leaves the guest's scrub cost untouched. *)

val blit_to_bytes : t -> pa:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** [blit_to_bytes t ~pa ~dst ~dst_off ~len] copies [len] bytes starting
    at physical address [pa] into [dst] at [dst_off] — a read, so the
    dirty tracker is untouched. Raises
    {!Fault} if the source range is outside guest memory and
    [Invalid_argument] if the destination range is out of bounds. *)

val crc32_range : t -> pa:int -> len:int -> int
(** [crc32_range t ~pa ~len] is the CRC-32 of the given physical range,
    computed on the chunks (chained across chunk edges) without copying
    and without touching the dirty tracker — the page-hashing / layout-probe primitive.
    Raises {!Fault} if the range is out of bounds. *)

val identical_kernel_pages : t * int -> t * int -> float
(** [identical_kernel_pages (a, pa) (b, pb)] is the page-sharing measure
    of §6: the percentage of the nonzero 4 KiB pages in the 8 MiB of [a]
    above [pa] (where the kernel image was loaded) whose content (by
    CRC-32) also appears in the 8 MiB of [b] above [pb]. Content-based
    sharing is location-independent; all-zero pages merge trivially and
    are left out. Windows are clipped to each guest's size. *)

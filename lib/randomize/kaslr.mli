(** Coarse-grained KASLR: offset selection and relocation handling.

    This is the algorithm both principals share (paper §4.3: "the
    computational steps for in-monitor (FG)KASLR are the same as those in
    the Linux bootstrap loader", which is also why the entropy is
    equivalent). The bootstrap loader calls it from guest context; the
    monitor calls it before VM entry. Only the caller's cost accounting
    differs. *)

exception Reloc_error of string
(** Raised when a relocation cannot be applied: a 32-bit site whose new
    value escapes the 32-bit kernel window, a site outside the loaded
    image, or an inverse value that underflows. A real loader would boot a
    corrupt kernel; we fail loudly. *)

val choose_physical :
  Imk_entropy.Prng.t -> image_memsz:int -> mem_bytes:int -> int
(** [choose_physical rng ~image_memsz ~mem_bytes] picks the physical load
    address: a {!Imk_memory.Addr.kernel_align}-aligned slot in
    [[default_phys_load, mem_bytes - image_memsz]]. Falls back to the
    default load address when memory is too small to randomize. *)

val choose_virtual : Imk_entropy.Prng.t -> image_memsz:int -> int
(** [choose_virtual rng ~image_memsz] picks the virtual base: an aligned
    offset between the default kernel address (16 MiB above
    [kmap_base]) and the 1 GiB maximum, leaving room for the image
    (§4.3). The result is the randomized equivalent of
    {!Imk_memory.Addr.link_base}. *)

val virtual_slots : image_memsz:int -> int
(** [virtual_slots ~image_memsz] is how many distinct virtual bases
    {!choose_virtual} can return — the KASLR entropy denominator used by
    the security analysis. *)

val apply :
  mem:Imk_memory.Guest_mem.t ->
  relocs:Imk_elf.Relocation.table ->
  site_pa:(int -> int) ->
  new_va_of:(int -> int) ->
  unit
(** [apply ~mem ~relocs ~site_pa ~new_va_of] walks the relocation table
    and patches every site in guest memory. [site_pa] maps a link-time
    site VA to the guest-physical address where that site now lives
    (identity-plus-load-offset for KASLR; additionally displaced by the
    section map for FGKASLR). [new_va_of] maps a link-time {e target} VA
    to its randomized VA. Handles the three kinds of §3.2: 64-bit add,
    32-bit add with range check, 32-bit inverse subtract.

    [site_pa] is called exactly once per site, kind by kind (64-bit,
    32-bit, inverse), each kind's sites in table order — ascending link
    VA in a decoded table — and nothing else calls it. So it may be
    stateful: the FGKASLR boot passes an {!Fgkaslr.map} cursor, which
    is O(1) per query on ascending sites and steps back through the
    index where one kind's walk ends and the next begins. [new_va_of]
    is queried in the targets' order, which is arbitrary.

    Sites are patched in table order, batched into monotone physical
    runs (each inside one 2 MiB block and at most 1 MiB long) that pay
    one {!Imk_memory.Guest_mem.with_validated_range} bounds check +
    dirty-tracker update each instead of one per site, whatever 64 KiB
    storage chunks they span; a run dirties the gaps between its sites.
    Every site goes through one transformation of its bytes: in place in
    a run's store, or on a copy written back with
    {!Imk_memory.Guest_mem.write_sub} for a site straddling a storage
    edge or in a run that fails validation. Values written, patch order,
    raised errors and their messages are those of patching site by site
    through the checked accessors: a site outside the guest fails with
    the fault of a checked read of its width. The site addresses go to
    one per-domain buffer, so a warm call allocates only a constant few
    words. *)

val delta_new_va : delta:int -> int -> int
(** [delta_new_va ~delta va] is the plain-KASLR [new_va_of]: adds the
    virtual offset, validating that [va] lies in the kernel window. *)

(** The bootstrap loader: bzImage self-bootstrapping in guest context.

    Reproduces the paper's account of a bzImage boot (§2.2, §3.2, §3.3):

    + set up a boot stack, heap, bss and early page tables — the
      "Bootstrap Setup" cost, which grows for FGKASLR because the heap
      must hold a copy of the entire text section (up to 8× larger, §5.2);
    + for a standard compressed image, copy the compressed kernel out of
      the way of in-place decompression;
    + decompress (or, for the unoptimized compression-none kernel, copy
      the kernel to the location it expects to run at);
    + parse the kernel ELF and load its segments;
    + if randomization is requested: choose offsets using in-guest
      entropy (rdrand-style costs), shuffle function sections (FGKASLR),
      handle relocations and fix up the address-ordered tables;
    + jump to [startup_64].

    The {!Imk_kernel.Bzimage.None_optimized} variant skips the copies and
    decompression entirely (§3.3): the kernel was linked aligned so that
    it can execute where the monitor loaded it. Segment placement still
    happens as a data operation (the simulation's loaded-image state must
    be real) but costs nothing — the paper's point is precisely that the
    linker trick makes those copies free.

    Everything after offset selection is {!relocate}, the one routine
    the monitor's direct boot calls too: the two principals differ only
    in their entropy streams, the monitor's physical-base draw, this
    loader's text copies for the FGKASLR heap, decompression, and how
    the ELF is parsed — and they pay guest rather than host costs
    (§4.3). *)

exception Loader_error of string

type rando_request = Loader_off | Loader_kaslr | Loader_fgkaslr

type policy = {
  kallsyms_fixup : bool;
      (** eager kallsyms rewrite (stock Linux loader) vs skipping it (the
          paper's stripped loader used for fair comparison, §4.3) *)
  orc_fixup : bool;
      (** unread: {!relocate} takes [~orc]. Both presets set it [false];
          it stays while perf/ builds a policy as [{ p with kallsyms_fixup;
          write_setup_data }], which a two-field record rejects as a
          useless [with]. *)
  write_setup_data : bool;
      (** stash the displacement blob for deferred fixups *)
}
(** What {!relocate} does to kallsyms after relocating an FGKASLR
    kernel — one record for both principals. The ORC unwind table is
    {!relocate}'s [~orc] argument. *)

val default_policy : policy
(** Eager kallsyms, no setup data — the stock loader. *)

val stripped_policy : policy
(** No kallsyms fixup — the apples-to-apples comparator. *)

val setup_data_pa : int
(** Fixed guest-physical address of the setup-data blob (the real-mode
    data area at 0x90000). *)

val relocate :
  Imk_vclock.Charge.t ->
  Imk_memory.Guest_mem.t ->
  Imk_elf.Types.t ->
  config:Imk_kernel.Config.t ->
  in_guest:bool ->
  relocs:Imk_elf.Relocation.table option ->
  phys_load:int ->
  delta:int ->
  plan:Imk_randomize.Fgkaslr.plan option ->
  policy:policy ->
  orc:bool ->
  kernel:(unit -> Imk_guest.Boot_params.kernel_info) ->
  Imk_guest.Boot_params.t
(** Everything after offset selection, for both principals: the monitor's
    direct boot calls it before VM entry, {!run} from inside the guest.
    With the kernel's segments already placed at [phys_load] (shuffled by
    [plan]), it applies [relocs] for the virtual offset [delta] (skipped
    when [None], i.e. randomization off) and charges
    [Cost_model.reloc_cost] or [fg_reloc_cost] at the rate [in_guest]
    picks. With a [plan] it then fixes up the extab and symbol table,
    applies [policy] to kallsyms (fix up now, or write the setup-data
    blob at {!setup_data_pa} for a deferred fix-up), and fixes up the
    ORC unwind table when [orc] holds. {!run} passes [~orc:false], as
    Linux's loader leaves ORC alone; the monitor's direct boot passes
    its [Vm_config.orc] choice (§4.3 ablation). It returns the boot
    parameters the kernel is entered with, carrying [kernel ()], which
    is derived last, after the fixups; their [orc_fixed] is false only
    for a shuffled kernel whose ORC table [orc] left stale.

    Raises {!Loader_error} for a kernel missing a table section and
    [Imk_randomize.Kaslr.Reloc_error] for a relocation or table that does
    not fit the image. *)

type hooks = {
  parse_vmlinux : bytes -> Imk_elf.Types.t;
  decode_relocs : bytes -> Imk_elf.Relocation.table;
  fn_sections : Imk_elf.Types.t -> (int * int) array;
  kernel_info :
    Imk_elf.Types.t -> Imk_kernel.Config.t -> Imk_guest.Boot_params.kernel_info;
}
(** The loader's pure image-derivation steps, injectable so a monitor-side
    plan cache can memoize them across boots of the same image. Every hook
    must be observationally identical to its default (same results, same
    typed exceptions on the same inputs): the loader still charges every
    virtual-clock cost per boot, so hooks only change host wall clock. *)

val default_hooks : hooks
(** Uncached per-boot behaviour: [Imk_elf.Parser.parse],
    [Imk_elf.Relocation.decode], [Imk_randomize.Loadelf.fn_sections],
    [Imk_guest.Boot_params.kernel_info_of_elf]. *)

val run :
  ?hooks:hooks ->
  ?choices:Imk_randomize.Choices.t ->
  Imk_vclock.Charge.t ->
  Imk_memory.Guest_mem.t ->
  bzimage:Imk_kernel.Bzimage.t ->
  staging_pa:int ->
  config:Imk_kernel.Config.t ->
  rando:rando_request ->
  policy:policy ->
  rng:Imk_entropy.Prng.t ->
  Imk_guest.Boot_params.t
(** [run charge mem ~bzimage ~staging_pa ~config ~rando ~policy ~rng]
    executes the loader for an image the monitor staged in guest memory
    at [staging_pa], charging Bootstrap Setup and Decompression spans,
    and returns the boot parameters for the jump to the kernel.
    The payload comes from {!Imk_kernel.Bzimage.unpack}: decoded on the
    record's first boot, read from its verified memo on every later one,
    with the decompression charges paid on every boot alike. The loader
    never reads the staged guest bytes, so [staging_pa] is ignored.
    Raises {!Loader_error} for impossible requests (FGKASLR on a kernel
    without function sections, randomization without relocation info) and
    [Imk_randomize.Kaslr.Reloc_error] / [Imk_compress.Codec.Corrupt] on
    corrupt inputs.

    [choices] pins the entropy schedule ({!Imk_randomize.Choices}): the
    virtual-base and shuffle decisions come from the schedule's
    per-decision streams instead of [rng]. Data transformations and
    virtual-clock charges are unchanged — this is the differential
    oracle's lever for booting the monitor and loader paths on identical
    random decisions. Production boots omit it. *)

(** Synthetic vmlinux builder.

    Produces a real ELF64 kernel image from a {!Function_graph.t}. The
    image is self-describing: every structure that randomization must
    patch can be re-discovered and verified from the bytes alone, which is
    what makes mis-relocation detectable (the guest runtime "crashes" on a
    bad pointer just as a real kernel would).

    {2 Binary encodings}

    {b Function} (inside [.text] or its own [.text.fn_<id>] section):
    {v
    off  0  u64  magic        = Function_graph.fn_magic id
    off  8  u32  id
    off 12  u32  n_sites
    off 16  u32  encoded size (16-aligned)
    off 20  u32  pad
    off 24  site records, 16 bytes each:
            u8   kind (0 = abs64, 1 = abs32, 2 = inv32)
            u8*3 pad
            u32  target function id
            u64  value field  <- the relocation site (last 8 bytes)
                 abs64: full target VA
                 abs32: low 32 bits of target VA (high half zero)
                 inv32: low 32 bits of (Addr.inverse_base - target VA)
    then body filler, total size 16-aligned
    v}

    {b .rodata} function-pointer table (ops-struct stand-in):
    [u32 count, u32 pad], then per entry (16 bytes):
    [u64 target VA] (abs64 site), [u32 target id], [u32 pad].

    {b .kallsyms}: [u64 base VA] (abs64 site), [u32 count, u32 pad], then
    per symbol (8 bytes): [u32 offset-from-base, u32 id], sorted by
    offset. Mirrors Linux's relative kallsyms: plain KASLR only relocates
    the base; FGKASLR must rewrite and re-sort the offsets (§4.3).

    {b .extab} exception table: [u32 count, u32 pad], then per entry
    (24 bytes): [i32 fault_disp] (fault VA relative to the entry's own
    address), [i32 handler_disp] (handler VA relative to entry address +
    4), [u32 fault fn id], [u32 handler fn id], [u32 fault offset in fn],
    [u32 pad]; sorted by fault VA. Being self-relative, the table needs no
    KASLR relocs but goes stale under FGKASLR — exactly the Linux
    situation described in §3.2.

    {b .orc_unwind} (only with CONFIG_UNWINDER_ORC): [u32 count, u32 pad]
    then per entry (8 bytes): [i32 ip_disp] (IP relative to entry
    address), [u32 fn id]; sorted by IP. *)

type built = {
  config : Config.t;
  graph : Function_graph.t;
  elf : Imk_elf.Types.t;
  vmlinux : bytes;  (** the serialized ELF image *)
  relocs : Imk_elf.Relocation.table;
      (** empty when the config is not relocatable *)
  relocs_bytes : bytes;  (** {!Imk_elf.Relocation.encode} of [relocs] *)
  fn_va : int array;  (** link-time VA of each function *)
}

val build : Config.t -> built
(** [build config] generates the graph and assembles the image. Costs
    nothing on the virtual clock: kernel builds happen offline, not at
    boot. *)

val modeled_vmlinux_bytes : built -> int
(** actual ELF size × scale — the Table 1 "vmlinux size" figure. *)

val modeled_reloc_bytes : built -> int
val modeled_sections : built -> int
(** actual section count × scale: the section-header parsing work a
    full-size kernel of this configuration would present. *)

(** {2 Encoding constants} (shared with the randomizer, the guest runtime
    and the relocs tool) *)

val site_kind_code : Imk_elf.Relocation.kind -> int
val site_kind_of_code : int -> Imk_elf.Relocation.kind
val rodata_header_bytes : int
val rodata_entry_bytes : int
val kallsyms_header_bytes : int
val kallsyms_entry_bytes : int
val extab_header_bytes : int
val extab_entry_bytes : int
val orc_header_bytes : int
val orc_entry_bytes : int

(** Calibrated cost model for the simulated testbed.

    The paper's experiments ran on an Intel i7-4790 @ 3.6 GHz with DDR3-1600
    and an SSD reading at up to 560 MB/s (§5.1). The constants in
    {!default} are calibrated to that machine so that the reproduced
    figures land in the paper's ranges; EXPERIMENTS.md records the
    paper-vs-measured comparison. All cost functions return virtual
    nanoseconds and never touch a clock themselves — callers charge the
    result to a {!Clock.t}, usually under a {!Trace} span.

    Byte counts passed here are *modelled* sizes: synthetic kernel images
    are built at a reduced scale (DESIGN.md §4.3) and scaled back up before
    costing, so virtual times reflect the paper's 20–45 MB kernels. *)

type t = {
  cold_read_bps : float;
      (** SSD sequential read (cold page cache): 500 MB/s effective. *)
  cached_read_bps : float;
      (** page-cache read into guest memory: host memcpy-limited, 8 GB/s. *)
  host_memcpy_bps : float;  (** monitor-side large memcpy: 8 GB/s. *)
  guest_memcpy_bps : float;
      (** bootstrap-loader memcpy; early boot runs with cold caches,
          4 KiB pages and no prefetch tuning: 2.5 GB/s. *)
  zero_bps : float;  (** host-side memset-to-zero: 10 GB/s. *)
  early_zero_bps : float;
      (** zeroing during guest early boot (loader heap/bss/stack):
          2.5 GB/s. *)
  pte_write_ns : float;
      (** writing one early page-table entry in the loader, ~20 ns —
          dominated by the cold-cache store, not the arithmetic. *)
  loader_fixed_ns : float;
      (** mode transitions, GDT/IDT setup, trampolines: the
          size-independent tax of entering the bootstrap loader at all,
          ~2.5 ms. *)
  reloc_ns_monitor : float;
      (** applying one relocation entry in the monitor: random-access
          read-modify-write, ~12 ns. *)
  reloc_ns_guest : float;
      (** same work in the bootstrap loader; cold caches/TLB, ~16 ns. *)
  reloc_search_step_ns : float;
      (** one step of the FGKASLR binary search over shuffled sections
          (paper §3.2), ~4 ns per comparison. This models Linux's
          per-entry search; the simulator's own lookup
          ([Imk_randomize.Fgkaslr.displace]) is a bucket index that the
          virtual clock never sees. *)
  section_shuffle_ns : float;
      (** per-section bookkeeping when shuffling and re-laying-out
          function sections — header rewrite, address assignment,
          permutation bookkeeping — excluding the byte copies: ~800 ns. *)
  symbol_fixup_ns : float;
      (** per-symbol adjustment when rewriting the symbol table, ~90 ns. *)
  extab_fixup_ns : float;  (** per exception-table entry fixup, ~60 ns. *)
  kallsyms_ns_per_sym : float;
      (** per-symbol cost of the kallsyms sort+rewrite the paper measures
          at 22% of boot and proposes to defer (§4.3), ~600 ns. *)
  elf_parse_base_ns : float;  (** fixed ELF header/phdr parse cost. *)
  elf_parse_section_ns : float;  (** per section-header parse cost. *)
  page_table_ns_per_mib : float;
      (** building identity-mapped early page tables per MiB covered. *)
  vmm_entry_ns : float;
      (** KVM vcpu setup + VM entry, charged once per boot: ~300 us. *)
}

val default : t
(** Calibration for the paper's i7-4790 testbed. *)

(** {1 Cost helpers} — all take modelled byte or entry counts. *)

val read_cost : t -> cached:bool -> int -> int
(** [read_cost t ~cached bytes] is the cost of reading an image from
    storage into guest memory. *)

val memcpy_cost : t -> in_guest:bool -> int -> int
(** [memcpy_cost t ~in_guest bytes] is a bulk copy, at guest or host
    rate. *)

val zero_cost : t -> int -> int
(** [zero_cost t bytes] is zero-filling (bss, boot heap, stack). *)

val reloc_cost : t -> in_guest:bool -> entries:int -> int
(** [reloc_cost t ~in_guest ~entries] is plain (coarse KASLR) relocation
    handling for [entries] table entries. *)

val fg_reloc_cost : t -> in_guest:bool -> entries:int -> sections:int -> int
(** [fg_reloc_cost t ~in_guest ~entries ~sections] adds the per-entry
    binary search over [sections] shuffled function sections to
    {!reloc_cost} (paper §3.2). The charge models Linux's bsearch, so
    Fig 9's super-linear FGKASLR cost holds whatever the host does: the
    simulator finds each entry's section through an O(1) bucket index,
    and this charge does not change with it. *)

val elf_parse_cost : t -> sections:int -> int
(** [elf_parse_cost t ~sections] is parsing an ELF with that many section
    headers. *)

val decompress_cost : t -> codec:string -> out_bytes:int -> int
(** [decompress_cost t ~codec ~out_bytes] charges decompression at the
    codec's output-side rate. Codec names follow
    [Imk_compress.Codec.name]: "none" is free (a plain copy is charged
    separately by the caller); rates for lz4/lzo/gzip/bzip2/xz/lzma follow
    their published relative speeds (lz4 ≈ 2 GB/s … lzma ≈ 70 MB/s).
    Unknown codecs raise [Invalid_argument]. *)

val decompress_rate_bps : codec:string -> float
(** [decompress_rate_bps ~codec] exposes the rate table used by
    {!decompress_cost}. *)

val jitter : t -> Imk_entropy.Prng.t -> int -> int
(** [jitter t rng ns] perturbs a duration with ±1% gaussian measurement
    noise plus a small absolute term, clamped to stay positive — the
    run-to-run variance that produces the paper's min/max error bars. *)

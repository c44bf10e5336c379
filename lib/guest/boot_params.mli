(** What the kernel knows when it starts executing.

    A real kernel discovers its physical and virtual base from where it is
    running and finds its own tables through linked (relocated) symbols;
    this record is the explicit equivalent. The monitor (or bootstrap
    loader) fills it in before jumping to the entry point.

    For the deferred-kallsyms ablation (§4.3) the monitor can leave the
    kallsyms table stale and stash the section displacement map in guest
    memory as a setup-data blob the guest reads on first kallsyms
    access. *)

type kernel_info = {
  link_entry_va : int;
  link_rodata_va : int;
  link_kallsyms_va : int;
  link_extab_va : int;
  link_orc_va : int option;
  n_functions : int;
  modeled_functions : int;  (** actual × scale, for cost accounting *)
}

val kernel_info_of_built : Imk_kernel.Image.built -> kernel_info
(** Reads the link-time section addresses out of a built image. *)

val kernel_info_of_elf : Imk_elf.Types.t -> Imk_kernel.Config.t -> kernel_info
(** Same, from a parsed ELF (the boot-time path, where the build record is
    not available): function count from the symbol table. *)

type t = {
  phys_load : int;  (** guest-phys address of the image base *)
  virt_base : int;  (** randomized VA of the image base (link_base + Δ) *)
  entry_va : int;  (** randomized entry point *)
  mem_bytes : int;
  kernel : kernel_info;
  kallsyms_fixed : bool;
      (** true when the randomizer eagerly fixed up kallsyms (or nothing
          moved); false = the paper's deferred-fixup proposal *)
  orc_fixed : bool;
      (** whether the ORC table (if any) reflects the shuffle; the paper's
          in-monitor implementation leaves it false *)
  setup_data_pa : int option;
      (** where the displacement blob lives for deferred fixups *)
}

val delta : t -> int
(** [delta t] is the virtual randomization offset,
    [virt_base - Addr.link_base]. *)

val va_to_pa : t -> int -> int
(** [va_to_pa t va] translates a randomized kernel VA to guest-physical.
    Raises [Runtime_fault] via the caller's memory access when out of
    range — translation itself is pure arithmetic. *)

(** {1 Setup data blob} (displacement table for deferred fixups) *)

val default_setup_data_pa : int
(** Conventional guest-physical address of the blob: the real-mode data
    area at 0x90000, free in both boot paths. *)

val setup_data_encode : (int * int * int) array -> bytes
(** [(old_va, new_va, size)] triples, as produced by
    [Fgkaslr.displacement_pairs]. *)

val setup_data_of_plan : Imk_randomize.Fgkaslr.plan -> bytes
(** [setup_data_of_plan p] is
    [setup_data_encode (Fgkaslr.displacement_pairs p)], byte for byte,
    encoded straight from the plan's arrays by the same encoder: the
    blob a boot writes for the deferred kallsyms fixup, with no tuple
    per section. *)

val setup_data_decode : bytes -> (int * int * int) array
(** Raises [Invalid_argument] on a malformed blob. *)

val setup_data_read : Imk_memory.Guest_mem.t -> pa:int -> (int * int * int) array
(** [setup_data_read mem ~pa] decodes a blob in guest memory. *)

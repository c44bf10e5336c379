(** Kernel build configurations.

    Mirrors the paper's kernel matrix (Table 1): three presets — Lupine
    (small single-purpose), AWS (the Firecracker reference microVM
    kernel) and Ubuntu (a full distribution kernel) — each in three
    variants: [nokaslr] (not even relocatable), [kaslr]
    (CONFIG_RANDOMIZE_BASE) and [fgkaslr] (built with -ffunction-sections
    from the patched tree; carries per-function sections and their extra
    parsing cost even when randomization is disabled on the command line,
    as the paper notes in §5.1).

    Synthetic images are built at a reduced [scale]: an image models a
    kernel [scale] times its actual byte size. Cost accounting multiplies
    actual counts back up, so virtual boot times reflect the paper's
    20–45 MB kernels while buffers stay small (DESIGN.md §4.3). *)

type preset = Lupine | Aws | Ubuntu
type variant = Nokaslr | Kaslr | Fgkaslr

val preset_name : preset -> string
val variant_name : variant -> string
val all_presets : preset list
val all_variants : variant list

val kernel_name : preset -> variant -> string
(** [kernel_name preset variant] is the kernel's name, e.g. "aws-kaslr":
    its [name] field, the stem of its workspace disk files and the value of
    the CLIs' [--kernel]. *)

val kernel_names : (string * (preset * variant)) list
(** Every {!kernel_name} of the matrix with its preset and variant, in
    {!all} order — the one parser of a kernel name ([fcsim] and
    [mkkernel] build their [--kernel] enums from it). *)

type t = {
  name : string;  (** e.g. "aws-kaslr" *)
  preset : preset;
  variant : variant;
  relocatable : bool;  (** CONFIG_RELOCATABLE: emit relocation info *)
  fg_sections : bool;  (** -ffunction-sections: one section per function *)
  unwinder_orc : bool;  (** CONFIG_UNWINDER_ORC: carry an ORC table *)
  scale : int;  (** modelled bytes = actual bytes × scale *)
  functions : int;  (** actual function count in the synthetic image *)
  avg_fn_body : int;  (** mean filler bytes per function body *)
  avg_call_sites : int;  (** mean relocation sites per function *)
  rodata_ptrs : int;  (** function-pointer table entries in .rodata *)
  data_bytes : int;
  bss_bytes : int;
  extab_entries : int;
  orc_per_fn : int;  (** ORC entries per function when [unwinder_orc] *)
  linux_boot_ms : float;
      (** modelled Linux Boot time (entry to init) at the 256 MiB baseline *)
  memmap_ms_per_gib : float;
      (** additional Linux Boot time per GiB of guest memory (struct-page
          initialisation), the linear term in Figure 10 *)
  seed : int64;  (** build determinism: content + graph shape *)
}

val make : ?scale:int -> ?seed:int64 -> preset -> variant -> t
(** [make preset variant] instantiates a configuration. Default [scale] is
    16, default [seed] derives from the name. *)

val all : ?scale:int -> unit -> t list
(** [all ()] is the full 3×3 kernel matrix of Table 1. *)

val modeled_of_actual : t -> int -> int
(** [modeled_of_actual t n] is [n * t.scale] — the size/count fed to the
    cost model. *)

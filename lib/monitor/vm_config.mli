(** MicroVM configuration.

    Mirrors the four Firecracker builds of §5.1 as [flavor]s:
    [Baseline] (stock v0.26: direct uncompressed boot only),
    [Bzimage_support] (the unmerged bzImage patch), [In_monitor_kaslr]
    and [In_monitor_fgkaslr] (the paper's implementations; each also
    supports everything the previous flavors do). The relocation file is
    the extra runtime argument of Figure 8. *)

type flavor = Baseline | Bzimage_support | In_monitor_kaslr | In_monitor_fgkaslr

val flavor_name : flavor -> string

type rando_mode = Rando_off | Rando_kaslr | Rando_fgkaslr

val rando_of_variant : Imk_kernel.Config.variant -> rando_mode
(** The randomization a kernel variant boots with in the paper's matrix:
    nokaslr kernels boot with randomization off, kaslr with KASLR,
    fgkaslr with FGKASLR. *)

val rando_flags : (string * rando_mode) list
(** Each mode by its command-line name ("off", "kaslr", "fgkaslr"): the
    values of [fcsim --rando], and what reproducer commands print. *)

type kallsyms_policy = Kallsyms_eager | Kallsyms_deferred

type orc_policy = Orc_update | Orc_skip

type protocol = Linux64 | Pvh
(** Direct-boot protocols for uncompressed kernels (§2.2): the 64-bit
    Linux boot protocol and Xen PVH. They differ in how boot-time system
    information is conveyed; both skip the bootstrap loader. *)

type loader_policy = Loader_default | Loader_stripped
(** Which bootstrap loader a bzImage boot runs: the stock one (eager
    kallsyms fixup) or the paper's stripped comparator (§4.3). *)

type t = {
  flavor : flavor;
  profile : Profiles.t;
  kernel_path : string;  (** image name on the host disk *)
  relocs_path : string option;  (** the Figure 8 extra argument *)
  kernel_config : Imk_kernel.Config.t;
      (** build configuration of the kernel being booted (the monitor
          would get these constants from the config/ELF notes, §4.3) *)
  mem_bytes : int;
  rando : rando_mode;
  kallsyms : kallsyms_policy;
  orc : orc_policy;
  protocol : protocol;
  loader : loader_policy;
  boot_args : string;
      (** guest kernel command line; the bootstrap loader honours
          [nokaslr] and [nofgkaslr] flags, as Linux does (§5.1) *)
  initrd_path : string option;  (** optional initial ramdisk image *)
  devices : Devices.t list;
      (** attached devices; empty by default so paper-calibrated boot
          numbers are device-free *)
  seed : int64;  (** host entropy-pool seed for this boot *)
}

val make :
  ?flavor:flavor ->
  ?profile:Profiles.t ->
  ?relocs_path:string option ->
  ?mem_bytes:int ->
  ?rando:rando_mode ->
  ?kallsyms:kallsyms_policy ->
  ?orc:orc_policy ->
  ?protocol:protocol ->
  ?loader:loader_policy ->
  ?boot_args:string ->
  ?initrd_path:string option ->
  ?devices:Devices.t list ->
  ?seed:int64 ->
  kernel_path:string ->
  kernel_config:Imk_kernel.Config.t ->
  unit ->
  t
(** Defaults: Firecracker profile, 256 MiB (the paper's baseline VM
    size), randomization off, eager kallsyms, ORC skipped, flavor
    inferred from [rando] (baseline when off), Firecracker's standard
    command line, no initrd. *)

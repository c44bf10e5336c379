(** The virtual machine monitor — in-monitor (FG)KASLR lives here.

    [boot] runs one microVM boot end to end and is the simulation
    equivalent of executing Firecracker (the paper's measurement starts
    at the [execve] and ends just after the guest's init runs, §5.1):

    - {b Direct boot} (uncompressed vmlinux): the monitor reads the
      kernel one segment at a time directly into guest memory at its
      final location, and — with the paper's modification — parses the
      ELF, shuffles function sections (FGKASLR) and chooses a random
      virtual offset from the {e host} entropy pool, then hands the rest
      — relocations and the address-ordered tables — to
      {!Imk_bootstrap.Loader.relocate}, the routine the bootstrap loader
      runs too, charged at host rates; all before VM entry (§4.2).
      The kernel needs no modification; relocation info arrives as the
      extra [relocs_path] argument (Figure 8). Only this path fixes up
      the ORC unwind table, when [Vm_config.orc] is [Orc_update].
    - {b bzImage boot} (with the bzImage-support patch): the monitor
      stages the image in guest memory and hands control to the
      {!Imk_bootstrap.Loader}, which self-bootstraps exactly as on bare
      metal.

    Both principals take their {!Imk_bootstrap.Loader.policy} from one
    mapping of the config's [loader] preset and [kallsyms] choice.

    Both paths end by running {!Imk_guest.Linux_boot}, which verifies the
    loaded kernel's integrity — a boot after a botched randomization
    raises [Imk_guest.Runtime.Panic]. *)

exception Boot_error of string
(** Configuration and capability errors: a flavor asked to do something
    it does not implement (e.g. stock Firecracker given a bzImage),
    randomization without relocation info, an image too large for guest
    memory, or an fgkaslr request against a kernel without function
    sections. A kernel missing a table section fails inside the shared
    {!Imk_bootstrap.Loader.relocate} instead, with its
    [Imk_bootstrap.Loader.Loader_error]; both classify as a corrupt
    image. *)

exception Transient of string
(** A transient monitor-side failure (the simulation analogue of an EINTR
    during VM setup or a racing resource grab): retrying the same boot
    can succeed. Raised only by an [inject] hook today — the taxonomy
    ([Imk_fault.Failure]) and the supervisor's retry/backoff path key off
    it. *)

type boot_result = {
  config : Vm_config.t;
  params : Imk_guest.Boot_params.t;
  stats : Imk_guest.Runtime.verify_stats;
  mem : Imk_memory.Guest_mem.t;
      (** the booted guest's memory — inspected by the security analysis
          and the LEBench runner *)
}

val staging_pa : int
(** Where bzImages are staged in guest memory before the bootstrap loader
    runs (4 MiB, below the kernel's 16 MiB load address). *)

val boot :
  ?mem:Imk_memory.Guest_mem.t ->
  ?inject:(string -> unit) ->
  ?plans:Plan_cache.t ->
  ?choices:Imk_randomize.Choices.t ->
  Imk_vclock.Charge.t ->
  Imk_storage.Page_cache.t ->
  Vm_config.t ->
  boot_result
(** [boot charge cache config] performs one boot, charging In-Monitor /
    Bootstrap / Decompression / Linux Boot spans to [charge]'s trace.
    Reads images through [cache], so cold-vs-warm behaviour follows the
    cache state the experiment set up.

    [mem] supplies a caller-owned all-zero buffer of exactly
    [config.mem_bytes] instead of a fresh allocation — typically inside
    an [Imk_memory.Arena.with_buffer] bracket, the real-allocation
    analogue of Firecracker reusing microVM resources. Virtual-clock
    charges are identical either way, and the caller keeps ownership on
    both the success and failure paths.

    [inject] is a fault-injection hook called at named phase points
    (currently ["vmm-init"], at the top of the In-Monitor span). It may
    raise — e.g. {!Transient} — to simulate a phase failure; production
    callers simply omit it.

    [plans] consults a shared {!Plan_cache} for the image-derived boot
    plan (parsed ELF, decoded relocs, section arrays, bzImage header)
    instead of re-deriving it per boot. Observationally invisible: every
    virtual-clock charge, telemetry row, failure and [verify_boot]
    outcome is bit-identical with or without it (DESIGN.md §4) — only
    host wall clock changes.

    [choices] pins the randomization decisions to an
    {!Imk_randomize.Choices} schedule: physical base, virtual base and
    FGKASLR shuffle each come from their own per-decision stream instead
    of the principal's historical stream. Entropy {e costs} are still
    charged exactly as before — only where the decisions come from
    changes. This is the differential oracle's lever (DESIGN.md §8) for
    booting the in-monitor and bootstrap paths on identical random
    decisions; production boots omit it. *)

(** Experiment workspace: kernels built once, images on a simulated disk,
    and the run configuration every experiment reads.

    Builds the Table 1 kernel matrix lazily (an `ubuntu-fgkaslr` image
    with its six compressed bzImage variants is only assembled when an
    experiment asks for it) and registers every artifact with the
    simulated host disk, where boots read them through the page cache. *)

type run_config = {
  jobs : int;
      (** worker domains a campaign may fan out over ({!Campaign});
          results are bit-identical for any value *)
  contend : int * int;
      (** [(disk_capacity, decompress_slots)] of the shared timeline in
          contended boots (fig9's contention row) *)
  trace : (Imk_vclock.Trace.t -> unit) option;
      (** tap offered every finished boot's span trace (plain, contended
          and supervised). It may run on a worker domain, so it must
          synchronize internally and must not raise; it only observes *)
  requests : int option;
      (** fleet requests per cell; [None] keeps the experiment default *)
}

val default_run : run_config
(** Sequential, full contention [(1, 1)], no tap, default request
    count. *)

type t

val create :
  ?scale:int ->
  ?functions_override:int ->
  ?plan_cache:bool ->
  ?run:run_config ->
  unit ->
  t
(** [create ()] uses the full preset sizes; [functions_override] shrinks
    every kernel (tests use a few hundred functions for speed).
    [plan_cache] (default true) attaches a shared
    {!Imk_monitor.Plan_cache}; [false] is the A/B baseline
    (bench [--no-plan-cache]) — telemetry is bit-identical either way.
    [run] defaults to {!default_run}. *)

val run_config : t -> run_config

val disk : t -> Imk_storage.Disk.t

val scale : t -> int
(** The kernel-matrix scale this workspace builds at — campaigns that
    build their own per-point images (diffcheck) must match it. *)

val cache : t -> Imk_storage.Page_cache.t

val arena : t -> Imk_memory.Arena.t
(** The workspace's guest-memory recycling pool. No experiment borrows
    from it (every boot gets a fresh sparse guest); perf/'s arena
    workloads do. *)

val plans : t -> Imk_monitor.Plan_cache.t option
(** The workspace's shared boot-plan cache (None under [--no-plan-cache]). *)

val config : t -> Imk_kernel.Config.preset -> Imk_kernel.Config.variant -> Imk_kernel.Config.t

val built :
  t -> Imk_kernel.Config.preset -> Imk_kernel.Config.variant -> Imk_kernel.Image.built
(** Build (or fetch the cached) kernel image; also registers
    [<name>.vmlinux] and [<name>.relocs] on the disk. Not thread-safe:
    build on the calling domain before fanning out. *)

val vmlinux_path : t -> Imk_kernel.Config.preset -> Imk_kernel.Config.variant -> string
val relocs_path : t -> Imk_kernel.Config.preset -> Imk_kernel.Config.variant -> string

val bzimage_path :
  t ->
  Imk_kernel.Config.preset ->
  Imk_kernel.Config.variant ->
  codec:string ->
  bz:Imk_kernel.Bzimage.variant ->
  string
(** Link (or fetch) the bzImage variant and return its disk name. *)

(** {2 VM templates}

    One template per boot method of the paper's matrix, built here
    beside the paths it resolves (building one registers its images on
    the disk). Boots overwrite the seed. The rest of the boot vocabulary
    sits with the type it names: kernel names in
    {!Imk_kernel.Config.kernel_names}, the variant's randomization in
    {!Imk_monitor.Vm_config.rando_of_variant}, the [--rando] names in
    {!Imk_monitor.Vm_config.rando_flags} and a bzImage method's link in
    {!Imk_kernel.Bzimage.of_method}. *)

val direct_vm :
  t ->
  Imk_kernel.Config.preset ->
  Imk_kernel.Config.variant ->
  rando:Imk_monitor.Vm_config.rando_mode ->
  ?kallsyms:Imk_monitor.Vm_config.kallsyms_policy ->
  ?profile:Imk_monitor.Profiles.t ->
  ?mem:int ->
  unit ->
  Imk_monitor.Vm_config.t
(** A direct boot of the uncompressed vmlinux with in-monitor
    randomization [rando]. The relocation file (the Figure 8 extra
    argument) is passed only when [rando] randomizes. Defaults: eager
    kallsyms, the Firecracker profile, 256 MiB. *)

val bz_vm :
  t ->
  Imk_kernel.Config.preset ->
  Imk_kernel.Config.variant ->
  meth:string ->
  rando:Imk_monitor.Vm_config.rando_mode ->
  ?loader:Imk_monitor.Vm_config.loader_policy ->
  ?profile:Imk_monitor.Profiles.t ->
  ?mem:int ->
  unit ->
  Imk_monitor.Vm_config.t
(** A bzImage boot by method [meth] ("none-opt" or a codec name, see
    {!Imk_kernel.Bzimage.of_method}) that self-randomizes per [rando],
    on the top-rank flavor. Defaults: the stripped loader (the paper's
    comparator, §4.3), the Firecracker profile, 256 MiB. *)

val warm_all : t -> unit
(** Mark every registered image cached: the state a priming boot (or
    §5.1's warm-up boots) leaves for the files it reads. *)

(** Content-addressed boot plans: parse once, boot many.

    The monitor sees a kernel image before any guest runs, so everything
    derivable from the image bytes alone — the parsed ELF, the decoded
    relocation table, the alloc/function section arrays, image sizes, the
    bzImage header and its decoded payload — is a pure function of the
    image content and can be
    computed once and shared by every subsequent boot of that image
    (the same hoisting asymmetry the paper exploits for randomization
    itself, §4.2, and the snapshot/zygote amortization its §7 points at).

    Entries are keyed by disk path and verified against the image
    {e content}: a physical-identity fast path (the page cache hands every
    boot the same backing [bytes]) falls back to a CRC32 + length check
    when the object is new — so a workspace clone that rebuilt
    byte-identical images still hits, while any content change
    (e.g. an {!Imk_fault.Inject} corruption, which always materializes
    fresh bytes) misses and rebuilds. A corrupt image therefore can never
    observe a stale plan; its parse/decode fails typed on every boot,
    exactly as without the cache, and failed builds are never cached.

    The cache is {e observationally invisible} (DESIGN.md §4): plans are
    deeply immutable, virtual-clock charges are paid per boot from plan
    metadata exactly as the uncached path pays them after parsing, and
    all telemetry, failures and [verify_boot] outcomes are bit-identical
    with the cache on or off, for any [--jobs] fan-out. A single mutex
    guards the table and the memo fields, so one instance may be shared
    across worker domains. Every memo field follows one protocol: it is
    read under the lock, a miss is built outside it (a failed build
    stores nothing), and the result is stored under the lock; racing
    builders store interchangeable values, and the last store wins. The
    decoded bzImage payload is one of two memos outside the lock: it
    lives on the plan's {!Imk_kernel.Bzimage.t}, so every caller of the
    loader shares it, and is write-once by compare-and-set. The other is
    a decoded snapshot's chunk image: {!Snapshot.load_cached} keeps the
    config-free decoded snapshot as an entry of its own (through
    {!cached} and an extension of {!payload}), and the snapshot's first
    restore stores its image, also by compare-and-set, for every later
    restore to clone. *)

type elf_plan = {
  elf : Imk_elf.Types.t;
  alloc : Imk_elf.Types.section list;
      (** SHF_ALLOC sections in file order — the placement work list *)
  fn_sections : (int * int) array;
      (** function sections as (addr, size), sorted — FGKASLR input *)
  fn_table : Imk_randomize.Fgkaslr.table;
      (** [fn_sections]' FGKASLR section table: built (and validated)
          once per image, so an FGKASLR boot only draws its shuffle
          ({!Imk_randomize.Fgkaslr.draw}). A table that failed
          validation is stored too, and [draw] raises on it at the
          point where the boot used to build its plan; a KASLR boot of
          the same image never reads it. *)
  image_memsz : int;
  mutable kinfo :
    (Imk_kernel.Config.t * Imk_guest.Boot_params.kernel_info) option;
      (** memoized [Boot_params.kernel_info_of_elf] keyed by the kernel
          config; owned by the cache lock — use {!kernel_info} *)
}
(** Everything a direct boot derives from the kernel image bytes. The
    [elf] (including every section's [data]) is shared across boots and
    must never be mutated — boots only read it into guest memory. *)

type bz_plan = {
  bz : Imk_kernel.Bzimage.t;
  mutable l_elf : (int * Imk_elf.Types.t) option;
  mutable l_relocs : (int * Imk_elf.Relocation.table) option;
  mutable l_fns : (Imk_elf.Types.t * (int * int) array) option;
  mutable l_kinfo :
    (Imk_elf.Types.t * Imk_kernel.Config.t
    * Imk_guest.Boot_params.kernel_info)
      option;
}
(** A decoded bzImage header plus memos for the bootstrap loader's own
    work on it. [bz] carries the decoded payload itself
    ({!Imk_kernel.Bzimage.unpack}'s write-once memo, filled by the plan's
    first successful loader run), so a warm boot skips decompression on
    the host; the [l_*] fields memoize the loader's parse/decode of that
    payload. The payload is CRC-verified by the codec and fixed per plan,
    so the loader-side results are content-addressed by construction
    (the [int] keys re-check the payload part lengths). The [l_*] fields
    are owned by the cache lock — use {!loader_hooks}. *)

val build_elf_plan : bytes -> elf_plan
(** Pure plan construction, no cache. Raises [Imk_elf.Types.Malformed]
    exactly as [Imk_elf.Parser.parse] does. *)

val build_bz_plan : bytes -> bz_plan
(** Pure plan construction, no cache. Raises
    [Imk_kernel.Bzimage.Malformed] exactly as [Imk_kernel.Bzimage.decode]
    does. *)

type t

val create : unit -> t

type payload = ..
(** What an entry holds. Extensible so a module the cache cannot name
    (a decoded {!Snapshot}, which depends on this one through {!Vmm})
    adds its own constructor and caches through {!cached}. *)

val cached :
  t ->
  path:string ->
  bytes ->
  select:(payload -> 'a option) ->
  wrap:('a -> payload) ->
  build:(bytes -> 'a) ->
  'a
(** [cached t ~path bytes ~select ~wrap ~build] is the entry protocol
    behind {!elf_plan}, {!bz_plan} and {!relocs}: the value [select]
    finds in the entry under [path] when [bytes] is that entry's content
    (physical identity first, a CRC32 + length check when the object is
    new), else [build bytes], stored as [wrap v] only after [build]
    returns. [build] runs outside the lock; an exception from it
    propagates and stores nothing. *)

val elf_plan : t -> path:string -> bytes -> elf_plan
(** [elf_plan t ~path bytes] returns the cached plan when [bytes] is
    content-identical to the entry under [path], else builds (and caches)
    a fresh one. Raises like {!build_elf_plan}; failures are not
    cached. *)

val bz_plan : t -> path:string -> bytes -> bz_plan
(** bzImage analogue of {!elf_plan}; raises like {!build_bz_plan}. *)

val relocs : t -> path:string -> bytes -> Imk_elf.Relocation.table
(** Cached [Imk_elf.Relocation.decode]. Raises
    [Imk_elf.Relocation.Bad_table] on corrupt input, uncached. *)

val kernel_info :
  t option ->
  elf_plan ->
  Imk_kernel.Config.t ->
  Imk_guest.Boot_params.kernel_info
(** [kernel_info plans plan config] is
    [Boot_params.kernel_info_of_elf plan.elf config], memoized in the
    plan when [plans] is [Some] (keyed by [config] equality). *)

val loader_hooks : t option -> bz_plan -> Imk_bootstrap.Loader.hooks
(** Hooks for {!Imk_bootstrap.Loader.run} that memoize the loader's
    parse/decode/section-scan of the decompressed payload inside
    [bz_plan]. [None] returns {!Imk_bootstrap.Loader.default_hooks} —
    the uncached per-boot behaviour. *)

val stats : t -> int * int
(** [(hits, builds)] so far — test observability, not telemetry. *)

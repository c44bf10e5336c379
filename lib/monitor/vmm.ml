open Imk_memory
open Imk_vclock

exception Boot_error of string
exception Transient of string

let fail fmt = Printf.ksprintf (fun s -> raise (Boot_error s)) fmt

type boot_result = {
  config : Vm_config.t;
  params : Imk_guest.Boot_params.t;
  stats : Imk_guest.Runtime.verify_stats;
  mem : Guest_mem.t;
}

let staging_pa = 4 * 1024 * 1024

let modeled (config : Vm_config.t) n =
  Imk_kernel.Config.modeled_of_actual config.kernel_config n

let flavor_rank = function
  | Vm_config.Baseline -> 0
  | Vm_config.Bzimage_support -> 1
  | Vm_config.In_monitor_kaslr -> 2
  | Vm_config.In_monitor_fgkaslr -> 3

let validate_capabilities (config : Vm_config.t) ~is_bzimage =
  let rank = flavor_rank config.flavor in
  if is_bzimage && rank < 1 then
    fail "%s does not support bzImage boot"
      (Vm_config.flavor_name config.flavor);
  if not is_bzimage then begin
    (match config.rando with
    | Vm_config.Rando_kaslr when rank < 2 ->
        fail "%s does not implement in-monitor KASLR"
          (Vm_config.flavor_name config.flavor)
    | Vm_config.Rando_fgkaslr when rank < 3 ->
        fail "%s does not implement in-monitor FGKASLR"
          (Vm_config.flavor_name config.flavor)
    | _ -> ())
  end

let read_image ch cache (config : Vm_config.t) path ~what =
  let cm = Charge.model ch in
  match Imk_storage.Page_cache.read cache path with
  | exception Not_found -> fail "%s image %s not found on disk" what path
  | contents, cached ->
      Charge.pay_using ch Sched.Disk
        (Cost_model.read_cost cm ~cached (modeled config (Bytes.length contents)));
      contents

(* initial guest page tables: the monitor builds these for a direct boot;
   identity map of the first GiB with 2 MiB pages *)
let charge_page_tables ch =
  let cm = Charge.model ch in
  let pt =
    Page_table.identity_map ~covered_bytes:(Imk_util.Units.gib 1)
      ~page_size:Page_table.Two_m
  in
  Charge.pay ch (Cost_model.zero_cost cm (Page_table.table_bytes pt));
  Charge.pay ch (int_of_float (1024. *. (Charge.model ch).Cost_model.page_table_ns_per_mib))

let protocol_setup_ns = function
  | Vm_config.Linux64 -> 50_000
  | Vm_config.Pvh -> 30_000

let boot_info_proto = function
  | Vm_config.Linux64 -> Imk_guest.Boot_info.Proto_linux64
  | Vm_config.Pvh -> Imk_guest.Boot_info.Proto_pvh

(* load the initrd (if any) at the top of guest memory and publish the
   zero page / start info the guest will trust *)
let setup_boot_info ch cache (config : Vm_config.t) mem =
  let initrd =
    match config.initrd_path with
    | None -> None
    | Some path ->
        let image = read_image ch cache config path ~what:"initrd" in
        let len = Bytes.length image in
        let pa = Addr.align_down (Guest_mem.size mem - len) 4096 in
        if pa <= Addr.default_phys_load then
          fail "initrd (%d bytes) does not fit above the kernel" len;
        Guest_mem.write_bytes mem ~pa image;
        Some (pa, len)
  in
  let info =
    {
      Imk_guest.Boot_info.proto = boot_info_proto config.protocol;
      cmdline = config.boot_args;
      e820 = Imk_guest.Boot_info.e820_of_mem ~mem_bytes:(Guest_mem.size mem);
      initrd;
    }
  in
  (try Imk_guest.Boot_info.write mem info
   with Imk_guest.Boot_info.Invalid m -> fail "boot info: %s" m);
  Charge.pay ch (protocol_setup_ns config.protocol);
  (* physical randomization must stay below the initrd *)
  match initrd with Some (pa, _) -> pa | None -> Guest_mem.size mem

(* The Â§4.3 alternative to hardcoding kernel constants: read them from
   the image's ELF note and check the kernel was built for the address
   space this monitor provides. Kernels without the note fall back to
   the hardcoded constants, like the paper's prototype. *)
let check_kaslr_note (elf : Imk_elf.Types.t) =
  match Imk_elf.Types.section_by_name elf Imk_elf.Note.section_name with
  | None -> ()
  | Some s -> (
      match Imk_elf.Note.decode_kaslr (Imk_elf.Note.decode s.data) with
      | exception Imk_elf.Types.Malformed m -> fail "kernel constants note: %s" m
      | c ->
          if
            c.Imk_elf.Note.kmap_base <> Addr.kmap_base
            || c.Imk_elf.Note.phys_align <> Addr.kernel_align
            || c.Imk_elf.Note.phys_start <> Addr.default_phys_load
          then
            fail
              "kernel built for a different address space (note: start=%#x \
               align=%#x kmap=%#x)"
              c.Imk_elf.Note.phys_start c.Imk_elf.Note.phys_align
              c.Imk_elf.Note.kmap_base)

(* --- direct (uncompressed vmlinux) boot --- *)

let direct_boot ?plans ?choices ch cache (config : Vm_config.t) kernel_bytes mem
    ~phys_limit =
  let cm = Charge.model ch in
  (* the plan is derived once per image content; the boot still pays the
     full parse cost below — the cache only moves host CPU, never virtual
     time (cache transparency, DESIGN.md §4) *)
  let bplan =
    try
      match plans with
      | Some t -> Plan_cache.elf_plan t ~path:config.kernel_path kernel_bytes
      | None -> Plan_cache.build_elf_plan kernel_bytes
    with Imk_elf.Parser.Malformed m -> fail "kernel ELF: %s" m
  in
  let elf = bplan.Plan_cache.elf in
  check_kaslr_note elf;
  Charge.pay ch
    (Cost_model.elf_parse_cost cm
       ~sections:(modeled config (Array.length elf.Imk_elf.Types.sections)));
  let image_memsz = bplan.Plan_cache.image_memsz in
  if Addr.default_phys_load + image_memsz > phys_limit then
    fail "kernel (%d bytes in memory) does not fit in %d bytes of guest memory"
      image_memsz phys_limit;
  let rando = config.rando in
  let relocs =
    match rando with
    | Vm_config.Rando_off -> None
    | Vm_config.Rando_kaslr | Vm_config.Rando_fgkaslr -> (
        match config.relocs_path with
        | None ->
            fail
              "in-monitor randomization requires the relocation-entries \
               argument (vmlinux.relocs)"
        | Some path -> (
            let bytes = read_image ch cache config path ~what:"relocs" in
            (* a corrupt table propagates as the typed
               [Imk_elf.Relocation.Bad_table] so a supervisor can fall
               back to re-deriving the relocs from the ELF *)
            match
              match plans with
              | Some t -> Plan_cache.relocs t ~path bytes
              | None -> Imk_elf.Relocation.decode bytes
            with
            | t when Imk_elf.Relocation.entry_count t = 0 ->
                fail "relocs file %s is empty — kernel built without \
                      CONFIG_RELOCATABLE?" path
            | t -> Some t))
  in
  (* host entropy pool: cheap, well-seeded randomness (§4.3). A pinned
     [choices] schedule (differential oracles) only replaces where the
     random decisions come from; every charge below is unchanged *)
  let pool = Imk_entropy.Pool.create Imk_entropy.Pool.Host_pool ~seed:config.seed in
  let rng = Imk_entropy.Pool.prng pool in
  let rng_for decision = Option.fold ~none:rng ~some:decision choices in
  let phys_load, delta =
    match rando with
    | Vm_config.Rando_off -> (Addr.default_phys_load, 0)
    | _ ->
        Charge.pay ch (2 * Imk_entropy.Pool.draw_cost_ns pool);
        let phys =
          Imk_randomize.Kaslr.choose_physical
            (rng_for Imk_randomize.Choices.physical_rng)
            ~image_memsz ~mem_bytes:phys_limit
        in
        let virt =
          Imk_randomize.Kaslr.choose_virtual
            (rng_for Imk_randomize.Choices.virtual_rng)
            ~image_memsz
        in
        (phys, virt - Addr.link_base)
  in
  let plan =
    match rando with
    | Vm_config.Rando_fgkaslr ->
        let sections = bplan.Plan_cache.fn_sections in
        if Array.length sections = 0 then
          fail
            "in-monitor FGKASLR requires a kernel built with \
             -ffunction-sections (fgkaslr variant)";
        Charge.pay ch
          (int_of_float
             (cm.Cost_model.section_shuffle_ns
             *. float_of_int (modeled config (Array.length sections))));
        Some
          (Imk_randomize.Fgkaslr.make_plan
             (rng_for Imk_randomize.Choices.shuffle_rng)
             ~sections ~text_base:Addr.link_base)
    | _ -> None
  in
  (* one-pass placement: segments land at their final (displaced)
     location directly — no self-relocation copies (§5.2) *)
  Imk_randomize.Loadelf.place_list mem bplan.Plan_cache.alloc ~phys_load ~plan;
  (* everything after offset selection is the bootstrap loader's own
     routine, charged at host rates *)
  let policy =
    {
      Imk_bootstrap.Loader.kallsyms_fixup =
        config.kallsyms = Vm_config.Kallsyms_eager;
      write_setup_data = config.kallsyms = Vm_config.Kallsyms_deferred;
      orc_fixup = config.orc = Vm_config.Orc_update;
    }
  in
  let params =
    Imk_bootstrap.Loader.relocate ch mem elf ~config:config.kernel_config
      ~in_guest:false ~relocs ~phys_load ~delta ~plan ~policy
      ~kernel:(fun () ->
        Plan_cache.kernel_info plans bplan config.kernel_config)
  in
  charge_page_tables ch;
  Charge.pay ch (int_of_float cm.Cost_model.vmm_entry_ns);
  params

(* --- bzImage boot --- *)

(* in-monitor half: decode the header (cached per image content) and
   stage the image in guest memory. The header-parse charge is paid per
   boot whether or not the decode was cached. *)
let stage_bzimage ?plans ch (config : Vm_config.t) kernel_bytes mem =
  let cm = Charge.model ch in
  let bplan =
    try
      match plans with
      | Some t -> Plan_cache.bz_plan t ~path:config.kernel_path kernel_bytes
      | None -> Plan_cache.build_bz_plan kernel_bytes
    with Imk_kernel.Bzimage.Malformed m -> fail "bzImage: %s" m
  in
  Charge.pay ch 2_000 (* setup-header parse *);
  if staging_pa + Bytes.length kernel_bytes > Guest_mem.size mem then
    fail "bzImage does not fit in guest memory";
  Guest_mem.write_bytes mem ~pa:staging_pa kernel_bytes;
  charge_page_tables ch;
  Charge.pay ch (int_of_float cm.Cost_model.vmm_entry_ns);
  bplan

(* guest half: control transfers to the bootstrap loader *)
let run_loader ?plans ?choices ch (config : Vm_config.t) bplan mem =
  let rando =
    match config.rando with
    | Vm_config.Rando_off -> Imk_bootstrap.Loader.Loader_off
    | Vm_config.Rando_kaslr -> Imk_bootstrap.Loader.Loader_kaslr
    | Vm_config.Rando_fgkaslr -> Imk_bootstrap.Loader.Loader_fgkaslr
  in
  let policy =
    let base =
      match config.loader with
      | Vm_config.Loader_default -> Imk_bootstrap.Loader.default_policy
      | Vm_config.Loader_stripped -> Imk_bootstrap.Loader.stripped_policy
    in
    { base with
      Imk_bootstrap.Loader.write_setup_data =
        config.kallsyms = Vm_config.Kallsyms_deferred;
      kallsyms_fixup =
        base.Imk_bootstrap.Loader.kallsyms_fixup
        && config.kallsyms = Vm_config.Kallsyms_eager;
    }
  in
  let guest_rng = Imk_entropy.Prng.create ~seed:(Int64.add config.seed 101L) in
  let hooks = Plan_cache.loader_hooks plans bplan in
  try
    Imk_bootstrap.Loader.run ~hooks ?choices ch mem ~bzimage:bplan.Plan_cache.bz
      ~staging_pa ~config:config.kernel_config ~rando ~policy ~rng:guest_rng
  with Imk_bootstrap.Loader.Loader_error m -> fail "bootstrap loader: %s" m

let boot_on ?(inject = fun (_ : string) -> ()) ?plans ?choices ch cache
    (config : Vm_config.t) mem =
  let staged =
    Charge.span ch Trace.In_monitor "in-monitor" (fun () ->
        inject "vmm-init";
        Charge.pay ch config.profile.Profiles.vmm_init_ns;
        Charge.pay ch config.profile.Profiles.io_setup_ns;
        (* device model wiring; block devices need their backing file *)
        List.iter
          (fun device ->
            (match device with
            | Devices.Virtio_blk { image } ->
                if not (Imk_storage.Disk.mem (Imk_storage.Page_cache.disk cache) image) then
                  fail "virtio-blk backing file %s not found" image
            | Devices.Serial | Devices.Virtio_net -> ());
            Charge.pay ch (Devices.monitor_setup_ns config.profile device))
          config.devices;
        let kernel_bytes =
          read_image ch cache config config.kernel_path ~what:"kernel"
        in
        let is_bzimage = not (Imk_elf.Parser.is_elf kernel_bytes) in
        validate_capabilities config ~is_bzimage;
        let phys_limit = setup_boot_info ch cache config mem in
        if is_bzimage then `Bz (stage_bzimage ?plans ch config kernel_bytes mem)
        else
          `Direct
            (direct_boot ?plans ?choices ch cache config kernel_bytes mem
               ~phys_limit))
  in
  (* bzImage boots leave In-Monitor before the loader runs *)
  let params =
    match staged with
    | `Direct p -> p
    | `Bz bplan -> run_loader ?plans ?choices ch config bplan mem
  in
  (* guest driver probes and the rootfs mount are part of the guest's
     boot (a separate top-level Linux Boot span; phase totals sum) *)
  List.iter
    (fun device ->
      Charge.pay_span ch Trace.Linux_boot ("probe-" ^ Devices.name device)
        (Devices.guest_probe_ns device);
      match device with
      | Devices.Virtio_blk { image } -> (
          let sb =
            Devices.blk_read ch cache ~image ~off:0
              ~len:Imk_kernel.Rootfs.superblock_bytes
          in
          try Imk_kernel.Rootfs.mount_check sb
          with Imk_kernel.Rootfs.Corrupt m -> raise (Imk_guest.Runtime.Panic m))
      | Devices.Serial | Devices.Virtio_net -> ())
    config.devices;
  let stats = Imk_guest.Linux_boot.run ch config.kernel_config mem params in
  { config; params; stats; mem }

let boot ?mem ?inject ?plans ?choices ch cache (config : Vm_config.t) =
  if config.mem_bytes < 32 * 1024 * 1024 then
    fail "guest memory too small (%d bytes)" config.mem_bytes;
  let mem =
    match mem with
    | Some m ->
        if Guest_mem.size m <> config.mem_bytes then
          fail "provided guest memory is %d bytes, config wants %d"
            (Guest_mem.size m) config.mem_bytes;
        m
    | None -> Guest_mem.create ~size:config.mem_bytes
  in
  boot_on ?inject ?plans ?choices ch cache config mem

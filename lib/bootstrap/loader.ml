open Imk_memory
open Imk_vclock

exception Loader_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Loader_error s)) fmt

type rando_request = Loader_off | Loader_kaslr | Loader_fgkaslr

type policy = {
  kallsyms_fixup : bool;
  orc_fixup : bool;
  write_setup_data : bool;
}

let default_policy =
  { kallsyms_fixup = true; orc_fixup = false; write_setup_data = false }

let stripped_policy =
  { kallsyms_fixup = false; orc_fixup = false; write_setup_data = false }

type hooks = {
  parse_vmlinux : bytes -> Imk_elf.Types.t;
  decode_relocs : bytes -> Imk_elf.Relocation.table;
  fn_sections : Imk_elf.Types.t -> (int * int) array;
  kernel_info :
    Imk_elf.Types.t -> Imk_kernel.Config.t -> Imk_guest.Boot_params.kernel_info;
}

let default_hooks =
  {
    parse_vmlinux = (fun b -> Imk_elf.Parser.parse b);
    decode_relocs = Imk_elf.Relocation.decode;
    fn_sections = Imk_randomize.Loadelf.fn_sections;
    kernel_info = Imk_guest.Boot_params.kernel_info_of_elf;
  }

let setup_data_pa = Imk_guest.Boot_params.default_setup_data_pa
let loader_stack_bytes = 64 * 1024
let loader_bss_bytes = 128 * 1024
let base_heap_bytes = 256 * 1024

let modeled (config : Imk_kernel.Config.t) n =
  Imk_kernel.Config.modeled_of_actual config n

let bytes_at_early_rate cm bytes =
  int_of_float (float_of_int bytes /. cm.Cost_model.early_zero_bps *. 1e9)

(* setup: mode transitions, loader stack/heap/bss zeroing and early
   4 KiB-page identity tables. The FGKASLR heap must hold a copy of the
   whole text, up to 8x the KASLR heap (§5.2) — [modeled_heap_bytes] is
   the full-scale volume to zero. *)
let charge_setup ch ~modeled_heap_bytes =
  let cm = Charge.model ch in
  Charge.pay ch (int_of_float cm.Cost_model.loader_fixed_ns);
  (* the loader's own fixed structures (not kernel-size dependent) *)
  Charge.pay ch
    (bytes_at_early_rate cm (loader_stack_bytes + loader_bss_bytes));
  Charge.pay ch (bytes_at_early_rate cm modeled_heap_bytes);
  (* identity map of the first GiB with 4 KiB pages: the loader runs
     before large pages are available *)
  let pt =
    Page_table.identity_map
      ~covered_bytes:(Imk_util.Units.gib 1)
      ~page_size:Page_table.Four_k
  in
  Charge.pay ch (bytes_at_early_rate cm (Page_table.table_bytes pt));
  Charge.pay ch
    (int_of_float
       (cm.Cost_model.pte_write_ns *. float_of_int (Page_table.entries pt)))

(* everything after offset selection, for both principals (§4.2–4.3):
   the monitor runs it before VM entry, this loader inside the guest *)
let relocate ch mem (elf : Imk_elf.Types.t) ~config ~in_guest ~relocs
    ~phys_load ~delta ~plan ~policy ~orc ~kernel =
  let cm = Charge.model ch in
  let per_entry ns n =
    Charge.pay ch (int_of_float (ns *. float_of_int (modeled config n)))
  in
  let displace va =
    match plan with Some p -> Imk_randomize.Fgkaslr.displace p va | None -> va
  in
  (match relocs with
  | None -> ()
  | Some relocs ->
      (* [apply] asks for each kind's sites in ascending order: a cursor
         maps them, and the index serves the targets *)
      let site_pa =
        match plan with
        | None -> fun va -> va - Addr.link_base + phys_load
        | Some p ->
            let m = Imk_randomize.Fgkaslr.mapper p in
            fun va ->
              Imk_randomize.Fgkaslr.map m va - Addr.link_base + phys_load
      in
      let new_va_of =
        match plan with
        | None -> Imk_randomize.Kaslr.delta_new_va ~delta
        | Some p ->
            fun va ->
              Imk_randomize.Kaslr.delta_new_va ~delta
                (Imk_randomize.Fgkaslr.displace p va)
      in
      Imk_randomize.Kaslr.apply ~mem ~relocs ~site_pa ~new_va_of;
      let entries = modeled config (Imk_elf.Relocation.entry_count relocs) in
      Charge.pay ch
        (match plan with
        | None -> Cost_model.reloc_cost cm ~in_guest ~entries
        | Some p ->
            Cost_model.fg_reloc_cost cm ~in_guest ~entries
              ~sections:(modeled config p.Imk_randomize.Fgkaslr.count)));
  (* table fixups (FGKASLR only; plain KASLR leaves relative tables
     valid). Entry counts come from the headers the fixups validated. *)
  (match plan with
  | None -> ()
  | Some p ->
      let sec name =
        match Imk_elf.Types.section_by_name elf name with
        | Some s -> (s.addr - Addr.link_base + phys_load, s.addr)
        | None -> fail "kernel has no %s section" name
      in
      let extab_pa, extab_va = sec ".extab" in
      Imk_randomize.Fgkaslr.fixup_extab mem ~pa:extab_pa ~extab_va p;
      per_entry cm.Cost_model.extab_fixup_ns
        (Guest_mem.get_u32 mem ~pa:extab_pa);
      (* Linux fixes up the ELF symtab as part of FGKASLR *)
      per_entry cm.Cost_model.symbol_fixup_ns (Array.length elf.symbols);
      if policy.kallsyms_fixup then begin
        let kallsyms_pa, _ = sec ".kallsyms" in
        Imk_randomize.Fgkaslr.fixup_kallsyms mem ~pa:kallsyms_pa p;
        per_entry cm.Cost_model.kallsyms_ns_per_sym
          config.Imk_kernel.Config.functions
      end;
      if policy.write_setup_data then
        Guest_mem.write_bytes mem ~pa:setup_data_pa
          (Imk_guest.Boot_params.setup_data_of_plan p);
      if orc then
        match Imk_elf.Types.section_by_name elf ".orc_unwind" with
        | None -> ()
        | Some s ->
            let pa = s.addr - Addr.link_base + phys_load in
            Imk_randomize.Fgkaslr.fixup_orc mem ~pa ~orc_va:s.addr p;
            per_entry cm.Cost_model.extab_fixup_ns (Guest_mem.get_u32 mem ~pa));
  let kernel = kernel () in
  let moved = plan <> None in
  {
    Imk_guest.Boot_params.phys_load;
    virt_base = Addr.link_base + delta;
    entry_va = displace elf.entry + delta;
    mem_bytes = Guest_mem.size mem;
    kernel;
    kallsyms_fixed = (not moved) || policy.kallsyms_fixup;
    orc_fixed = (not moved) || orc;
    setup_data_pa =
      (if moved && policy.write_setup_data then Some setup_data_pa else None);
  }

let run ?(hooks = default_hooks) ?choices ch mem ~bzimage ~staging_pa ~config
    ~rando ~policy ~rng =
  (* the payload comes from the plan's [Bzimage.unpack] memo, not from
     the bytes the monitor staged at [staging_pa] *)
  ignore staging_pa;
  (* a pinned entropy schedule (differential oracles) replaces only where
     the random decisions come from; every cost charge and every byte of
     data transformation below is unchanged *)
  let rng_for decision = Option.fold ~none:rng ~some:decision choices in
  let cm = Charge.model ch in
  let open Imk_kernel in
  let payload_len = Bytes.length bzimage.Bzimage.payload in
  let uncompressed_len = bzimage.Bzimage.vmlinux_len + bzimage.Bzimage.relocs_len in
  (* early parameter parsing: the command line can veto randomization,
     exactly as Linux's loader honours nokaslr / nofgkaslr (§5.1) *)
  let rando =
    match Imk_guest.Boot_info.read mem with
    | exception Imk_guest.Boot_info.Invalid _ -> rando
    | info ->
        if Imk_guest.Boot_info.has_flag info "nokaslr" then Loader_off
        else if
          rando = Loader_fgkaslr
          && Imk_guest.Boot_info.has_flag info "nofgkaslr"
        then Loader_kaslr
        else rando
  in
  let fg = rando = Loader_fgkaslr in
  (* 1. loader setup: the FGKASLR heap must hold the whole text section
     copy, so its modelled size is the full-scale kernel *)
  let modeled_heap_bytes =
    if fg then max base_heap_bytes (modeled config bzimage.Bzimage.vmlinux_len)
    else base_heap_bytes
  in
  Charge.span ch Trace.Bootstrap_setup "loader-setup" (fun () ->
      charge_setup ch ~modeled_heap_bytes;
      (* standard boot: move the compressed (or merely concatenated, for
         compression-none) kernel out of the way of in-place
         decompression — step 2 of §3.3, eliminated by None_optimized *)
      if bzimage.Bzimage.variant = Bzimage.Standard then
        Charge.pay ch
          (Cost_model.memcpy_cost cm ~in_guest:true (modeled config payload_len)));
  (* 2. decompression. The data transformation is real once per image
     content: [Bzimage.unpack] decodes and CRC-checks the payload on the
     record's first boot and every later boot of the same record (a
     boot-plan cache shares one per image content) reads that verified
     memo. The charges below are paid on every boot, decoded or not.
     The decompressor writes its output directly at the kernel's run
     location, so no separate segment-copy cost follows — matching the
     real loader, where parse_elf only shifts segment boundaries. *)
  let { Bzimage.image; relocs = relocs_bytes } =
    Charge.span ch Trace.Decompression ("decompress-" ^ bzimage.Bzimage.codec)
      (fun () ->
        let unpacked = Bzimage.unpack bzimage in
        (match (bzimage.Bzimage.variant, bzimage.Bzimage.codec) with
        | Bzimage.Standard, "none" ->
            (* unoptimized compression-none: "decompression" is a copy of
               the whole kernel to the location it expects to run (§3.3) *)
            Charge.pay ch
              (Cost_model.memcpy_cost cm ~in_guest:true (modeled config uncompressed_len))
        | Bzimage.Standard, codec ->
            Charge.pay_using ch Sched.Decompress
              (Cost_model.decompress_cost cm ~codec
                 ~out_bytes:(modeled config uncompressed_len))
        | Bzimage.None_optimized, _ -> ());
        unpacked)
  in
  (* 3..6: parse, randomize, load, relocate — all Bootstrap Setup. The
     ELF parser reads [image] (vmlinux with the relocation table still
     concatenated after it): every parse offset is bounds-checked against
     the longer buffer exactly as against a trimmed copy, and no section
     reaches past [vmlinux_len], so the trailing bytes are inert — this
     is what lets the loader skip carving out a vmlinux copy. *)
  Charge.span ch Trace.Bootstrap_setup "loader-main" (fun () ->
      let elf =
        try hooks.parse_vmlinux image
        with Imk_elf.Parser.Malformed m -> fail "kernel ELF: %s" m
      in
      Charge.pay ch
        (Cost_model.elf_parse_cost cm
           ~sections:(modeled config (Array.length elf.Imk_elf.Types.sections)));
      let relocs =
        if rando = Loader_off then None
        else if Bytes.length relocs_bytes = 0 then
          fail "randomization requested but the image carries no relocations"
        else Some (hooks.decode_relocs relocs_bytes)
      in
      let phys_load = Addr.default_phys_load in
      let image_memsz = Imk_randomize.Loadelf.image_memsz elf in
      if phys_load + image_memsz > Guest_mem.size mem then
        fail "kernel does not fit in guest memory";
      (* offset selection burns in-guest entropy (rdrand-style) *)
      let entropy_cost draws =
        let pool = Imk_entropy.Pool.create Imk_entropy.Pool.Guest_rdrand ~seed:0L in
        draws * Imk_entropy.Pool.draw_cost_ns pool
      in
      let delta =
        match rando with
        | Loader_off -> 0
        | Loader_kaslr | Loader_fgkaslr ->
            Charge.pay ch (entropy_cost 2);
            Imk_randomize.Kaslr.choose_virtual
              (rng_for Imk_randomize.Choices.virtual_rng)
              ~image_memsz
            - Addr.link_base
      in
      let plan =
        if not fg then None
        else begin
          let sections = hooks.fn_sections elf in
          if Array.length sections = 0 then
            fail "FGKASLR requires a kernel built with -ffunction-sections";
          (* copy text to the boot heap and back while shuffling *)
          let text = Imk_randomize.Loadelf.text_bytes elf in
          Charge.pay ch
            (2 * Cost_model.memcpy_cost cm ~in_guest:true (modeled config text));
          Charge.pay ch
            (int_of_float
               (cm.Cost_model.section_shuffle_ns
               *. float_of_int (modeled config (Array.length sections))));
          Some
            (Imk_randomize.Fgkaslr.make_plan
               (rng_for Imk_randomize.Choices.shuffle_rng)
               ~sections ~text_base:Addr.link_base)
        end
      in
      (* segment placement: always a real data operation so the loaded
         image is genuine, but free on the clock — the standard path's
         copies were charged as decompression output above, and the
         optimized link runs in place (§3.3) *)
      Imk_randomize.Loadelf.place mem elf ~phys_load ~plan;
      let params =
        relocate ch mem elf ~config ~in_guest:true ~relocs ~phys_load ~delta
          ~plan ~policy ~orc:false
          ~kernel:(fun () -> hooks.kernel_info elf config)
      in
      (* the jump to startup_64 *)
      Trace.tracepoint (Charge.trace ch) Trace.Bootstrap_setup "jump-to-kernel";
      params)

(* Integration tests across Imk_monitor + Imk_bootstrap: the full boot
   matrix (presets × variants × methods), capability/flavor validation,
   failure injection, randomization distinctness, and cost-shape
   assertions (who is faster than whom — the claims C1..C4). *)

open Imk_monitor

let check = Alcotest.check
let int = Alcotest.int

(* --- the full matrix: every kernel variant boots via every method and
   passes runtime verification --- *)

let matrix_case preset variant method_ () =
  let rando =
    match variant with
    | Imk_kernel.Config.Nokaslr -> Vm_config.Rando_off
    | Imk_kernel.Config.Kaslr -> Vm_config.Rando_kaslr
    | Imk_kernel.Config.Fgkaslr -> Vm_config.Rando_fgkaslr
  in
  let env = Testkit.make_env ~preset ~variant ~functions:50 () in
  let trace, r =
    match method_ with
    | `Direct -> Testkit.boot env ~rando
    | `Bz_lz4 ->
        let path =
          Testkit.add_bzimage env ~codec:"lz4"
            ~variant:Imk_kernel.Bzimage.Standard
        in
        Testkit.boot env ~rando ~flavor:Vm_config.In_monitor_fgkaslr
          ~kernel_path:path ~relocs:None
    | `Bz_none_opt ->
        let path =
          Testkit.add_bzimage env ~codec:"none"
            ~variant:Imk_kernel.Bzimage.None_optimized
        in
        Testkit.boot env ~rando ~flavor:Vm_config.In_monitor_fgkaslr
          ~kernel_path:path ~relocs:None
  in
  check int "all functions verified" 50
    r.Vmm.stats.Imk_guest.Runtime.functions_visited;
  check Alcotest.bool "positive boot time" true (Imk_vclock.Trace.total trace > 0);
  (* randomized boots actually move the kernel *)
  let delta = Imk_guest.Boot_params.delta r.Vmm.params in
  match rando with
  | Vm_config.Rando_off -> check int "no offset" 0 delta
  | _ ->
      check Alcotest.bool "aligned offset" true
        (delta mod Imk_memory.Addr.kernel_align = 0)

let matrix_tests =
  List.concat_map
    (fun (pname, preset) ->
      List.concat_map
        (fun (vname, variant) ->
          List.map
            (fun (mname, m) ->
              Alcotest.test_case
                (Printf.sprintf "%s-%s via %s" pname vname mname)
                `Quick
                (matrix_case preset variant m))
            [ ("direct", `Direct); ("bz-lz4", `Bz_lz4); ("bz-none-opt", `Bz_none_opt) ])
        [
          ("nokaslr", Imk_kernel.Config.Nokaslr);
          ("kaslr", Imk_kernel.Config.Kaslr);
          ("fgkaslr", Imk_kernel.Config.Fgkaslr);
        ])
    [ ("lupine", Imk_kernel.Config.Lupine); ("aws", Imk_kernel.Config.Aws) ]

(* --- randomization distinctness --- *)

let whole_guest m =
  Imk_memory.Guest_mem.read_bytes m ~pa:0 ~len:(Imk_memory.Guest_mem.size m)

let test_different_seeds_different_layouts () =
  let env = Testkit.make_env ~variant:Imk_kernel.Config.Fgkaslr () in
  let _, a = Testkit.boot env ~rando:Vm_config.Rando_fgkaslr ~seed:1L in
  let _, b = Testkit.boot env ~rando:Vm_config.Rando_fgkaslr ~seed:2L in
  check Alcotest.bool "different virtual bases or layouts" true
    (a.Vmm.params.Imk_guest.Boot_params.virt_base
     <> b.Vmm.params.Imk_guest.Boot_params.virt_base
    || not
         (Bytes.equal (whole_guest a.Vmm.mem) (whole_guest b.Vmm.mem)))

let test_same_seed_same_layout () =
  let env = Testkit.make_env ~variant:Imk_kernel.Config.Fgkaslr () in
  let _, a = Testkit.boot env ~rando:Vm_config.Rando_fgkaslr ~seed:5L in
  let _, b = Testkit.boot env ~rando:Vm_config.Rando_fgkaslr ~seed:5L in
  check int "same base" a.Vmm.params.Imk_guest.Boot_params.virt_base
    b.Vmm.params.Imk_guest.Boot_params.virt_base;
  check Alcotest.bool "identical memory" true
    (Bytes.equal (whole_guest a.Vmm.mem) (whole_guest b.Vmm.mem))

let test_offsets_spread () =
  (* over several seeds the virtual base takes multiple values *)
  let env = Testkit.make_env () in
  let bases = Hashtbl.create 16 in
  for seed = 1 to 12 do
    let _, r = Testkit.boot env ~seed:(Int64.of_int seed) in
    Hashtbl.replace bases r.Vmm.params.Imk_guest.Boot_params.virt_base ()
  done;
  check Alcotest.bool "at least 6 distinct bases" true (Hashtbl.length bases >= 6)

(* --- capability / flavor validation --- *)

let expect_boot_error label f =
  Alcotest.test_case label `Quick (fun () ->
      check Alcotest.bool label true
        (try
           ignore (f ());
           false
         with Vmm.Boot_error _ -> true))

let capability_tests =
  [
    expect_boot_error "baseline rejects bzImage" (fun () ->
        let env = Testkit.make_env ~variant:Imk_kernel.Config.Nokaslr () in
        let path =
          Testkit.add_bzimage env ~codec:"lz4" ~variant:Imk_kernel.Bzimage.Standard
        in
        Testkit.boot env ~rando:Vm_config.Rando_off ~flavor:Vm_config.Baseline
          ~kernel_path:path);
    expect_boot_error "baseline rejects in-monitor kaslr" (fun () ->
        let env = Testkit.make_env () in
        Testkit.boot env ~flavor:Vm_config.Baseline ~rando:Vm_config.Rando_kaslr);
    expect_boot_error "kaslr flavor rejects fgkaslr" (fun () ->
        let env = Testkit.make_env ~variant:Imk_kernel.Config.Fgkaslr () in
        Testkit.boot env ~flavor:Vm_config.In_monitor_kaslr
          ~rando:Vm_config.Rando_fgkaslr);
    expect_boot_error "rando without relocs argument" (fun () ->
        let env = Testkit.make_env () in
        Testkit.boot env ~rando:Vm_config.Rando_kaslr ~relocs:None);
    expect_boot_error "fgkaslr on non-fg kernel" (fun () ->
        let env = Testkit.make_env ~variant:Imk_kernel.Config.Kaslr () in
        Testkit.boot env ~rando:Vm_config.Rando_fgkaslr);
    expect_boot_error "rando on nokaslr kernel (empty relocs)" (fun () ->
        let env = Testkit.make_env ~variant:Imk_kernel.Config.Nokaslr () in
        Testkit.boot env ~rando:Vm_config.Rando_kaslr);
    expect_boot_error "missing kernel image" (fun () ->
        let env = Testkit.make_env () in
        Testkit.boot env ~kernel_path:"nope.vmlinux");
    expect_boot_error "tiny guest memory" (fun () ->
        let env = Testkit.make_env () in
        Testkit.boot env ~mem_bytes:(8 * 1024 * 1024));
  ]

(* the relocs argument works when produced by the relocs tool instead of
   the build (Figure 8's alternative path) *)
let test_relocs_tool_output_boots () =
  let env = Testkit.make_env () in
  let extracted =
    Imk_kernel.Relocs_tool.extract env.Testkit.built.Imk_kernel.Image.vmlinux
  in
  Imk_storage.Disk.add env.Testkit.disk ~name:"tool.relocs"
    (Imk_elf.Relocation.encode extracted);
  let _, r = Testkit.boot env ~relocs:(Some "tool.relocs") in
  check int "verified" 80 r.Vmm.stats.Imk_guest.Runtime.functions_visited

(* --- failure injection: corrupt images must fail loudly, not boot --- *)

let test_corrupt_relocs_rejected () =
  let env = Testkit.make_env () in
  (* truncate the relocs file *)
  let good = env.Testkit.built.Imk_kernel.Image.relocs_bytes in
  Imk_storage.Disk.add env.Testkit.disk ~name:"bad.relocs"
    (Testkit.truncated good);
  check Alcotest.bool "rejected" true
    (try
       ignore (Testkit.boot env ~relocs:(Some "bad.relocs"));
       false
     with Imk_elf.Relocation.Bad_table _ -> true)

let test_wrong_relocs_detected_by_guest () =
  (* relocs from a *different* kernel: structurally valid, semantically
     wrong; the guest integrity walk must catch the mis-relocation *)
  let env = Testkit.make_env ~functions:50 ~seed:1L () in
  let other =
    Imk_kernel.Image.build
      { (Testkit.small_config ~functions:50 ~seed:2L ()) with
        Imk_kernel.Config.name = "other" }
  in
  Imk_storage.Disk.add env.Testkit.disk ~name:"wrong.relocs"
    other.Imk_kernel.Image.relocs_bytes;
  check Alcotest.bool "guest panics or reloc error" true
    (try
       ignore (Testkit.boot env ~relocs:(Some "wrong.relocs"));
       false
     with
    | Imk_guest.Runtime.Panic _ | Imk_randomize.Kaslr.Reloc_error _ -> true)

let test_corrupt_vmlinux_rejected () =
  let env = Testkit.make_env () in
  let bad = Bytes.copy env.Testkit.built.Imk_kernel.Image.vmlinux in
  (* corrupt the section header offset *)
  Imk_util.Byteio.set_addr bad 40 (Bytes.length bad * 4);
  Imk_storage.Disk.add env.Testkit.disk ~name:"bad.vmlinux" bad;
  check Alcotest.bool "rejected" true
    (try
       ignore (Testkit.boot env ~kernel_path:"bad.vmlinux");
       false
     with Vmm.Boot_error _ -> true)

let test_kernel_note_read_and_enforced () =
  let env = Testkit.make_env ~functions:40 () in
  (* the image carries the §4.3 constants note and boots normally *)
  let elf = Imk_elf.Parser.parse env.Testkit.built.Imk_kernel.Image.vmlinux in
  check Alcotest.bool "note present" true
    (Imk_elf.Types.section_by_name elf Imk_elf.Note.section_name <> None);
  let _, r = Testkit.boot env in
  check int "boots with note" 40 r.Vmm.stats.Imk_guest.Runtime.functions_visited;
  (* a kernel whose note declares a different address space is rejected *)
  let bad_note =
    Imk_elf.Note.encode
      (Imk_elf.Note.encode_kaslr
         {
           Imk_elf.Note.phys_start = 0x2000000 (* wrong *);
           phys_align = Imk_memory.Addr.kernel_align;
           kmap_base = Imk_memory.Addr.kmap_base;
           image_size_max = Imk_memory.Addr.kaslr_max_offset;
         })
  in
  let patched =
    Array.map
      (fun (s : Imk_elf.Types.section) ->
        if s.name = Imk_elf.Note.section_name then
          { s with Imk_elf.Types.data = bad_note; size = Bytes.length bad_note }
        else s)
      elf.Imk_elf.Types.sections
  in
  let bad = Imk_elf.Writer.write { elf with Imk_elf.Types.sections = patched } in
  Imk_storage.Disk.add env.Testkit.disk ~name:"foreign.vmlinux" bad;
  check Alcotest.bool "foreign kernel rejected" true
    (try
       ignore (Testkit.boot env ~kernel_path:"foreign.vmlinux");
       false
     with Vmm.Boot_error _ -> true)

(* --- cost-shape assertions (the paper's qualitative claims) --- *)

let boot_total env ?flavor ?kernel_path ?relocs ~rando () =
  let trace, _ = Testkit.boot env ?flavor ?kernel_path ?relocs ~rando in
  Imk_vclock.Trace.total trace

let test_claim_direct_beats_bzimage_cached () =
  let env = Testkit.make_env ~variant:Imk_kernel.Config.Nokaslr () in
  let direct = boot_total env ~rando:Vm_config.Rando_off () in
  let bz =
    let path =
      Testkit.add_bzimage env ~codec:"lz4" ~variant:Imk_kernel.Bzimage.Standard
    in
    boot_total env ~flavor:Vm_config.Bzimage_support ~kernel_path:path
      ~relocs:None ~rando:Vm_config.Rando_off ()
  in
  check Alcotest.bool "direct faster (C1 warm)" true (direct < bz)

let test_claim_in_monitor_beats_self_rando () =
  let env = Testkit.make_env ~variant:Imk_kernel.Config.Kaslr () in
  let in_monitor = boot_total env ~rando:Vm_config.Rando_kaslr () in
  let self_rando =
    let path =
      Testkit.add_bzimage env ~codec:"none"
        ~variant:Imk_kernel.Bzimage.None_optimized
    in
    boot_total env ~flavor:Vm_config.In_monitor_fgkaslr ~kernel_path:path
      ~relocs:None ~rando:Vm_config.Rando_kaslr ()
  in
  check Alcotest.bool "in-monitor faster (C4)" true (in_monitor < self_rando)

let test_claim_kaslr_overhead_small () =
  let base_env = Testkit.make_env ~variant:Imk_kernel.Config.Nokaslr () in
  let kaslr_env = Testkit.make_env ~variant:Imk_kernel.Config.Kaslr () in
  let base = boot_total base_env ~rando:Vm_config.Rando_off () in
  let kaslr = boot_total kaslr_env ~rando:Vm_config.Rando_kaslr () in
  check Alcotest.bool "kaslr adds <15%" true
    (float_of_int kaslr < 1.15 *. float_of_int base)

let test_claim_fgkaslr_costs_more_than_kaslr () =
  let kaslr_env = Testkit.make_env ~variant:Imk_kernel.Config.Kaslr () in
  let fg_env = Testkit.make_env ~variant:Imk_kernel.Config.Fgkaslr () in
  let kaslr = boot_total kaslr_env ~rando:Vm_config.Rando_kaslr () in
  let fg = boot_total fg_env ~rando:Vm_config.Rando_fgkaslr () in
  check Alcotest.bool "fgkaslr > kaslr" true (fg > kaslr)

let test_cold_cache_slower_than_warm () =
  let env = Testkit.make_env ~variant:Imk_kernel.Config.Nokaslr () in
  let vm seed =
    Vm_config.make ~rando:Vm_config.Rando_off
      ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg
      ~mem_bytes:(64 * 1024 * 1024) ~seed ()
  in
  Imk_storage.Page_cache.drop_caches env.Testkit.cache;
  let trace, ch = Imk_vclock.Charge.fresh () in
  ignore (Vmm.boot ch env.Testkit.cache (vm 1L));
  let cold = Imk_vclock.Trace.total trace in
  let trace2, ch2 = Imk_vclock.Charge.fresh () in
  ignore (Vmm.boot ch2 env.Testkit.cache (vm 1L));
  let warm = Imk_vclock.Trace.total trace2 in
  ignore trace2;
  check Alcotest.bool "cold slower" true (cold > warm)

let test_deterministic_without_jitter () =
  let env = Testkit.make_env () in
  (* first boot warms the page cache; compare the two warm boots *)
  let _ = Testkit.boot env ~seed:3L in
  let t1, _ = Testkit.boot env ~seed:3L in
  let t2, _ = Testkit.boot env ~seed:3L in
  check int "identical totals" (Imk_vclock.Trace.total t1)
    (Imk_vclock.Trace.total t2)

let test_qemu_profile_slower_in_monitor () =
  let env = Testkit.make_env ~variant:Imk_kernel.Config.Nokaslr () in
  let boot profile =
    let vm =
      Vm_config.make ~profile ~rando:Vm_config.Rando_off
        ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg
        ~mem_bytes:(64 * 1024 * 1024) ~seed:1L ()
    in
    let trace, ch = Imk_vclock.Charge.fresh () in
    ignore (Vmm.boot ch env.Testkit.cache vm);
    Imk_vclock.Trace.phase_total trace Imk_vclock.Trace.In_monitor
  in
  check Alcotest.bool "qemu monitor time higher" true
    (boot Profiles.qemu > boot Profiles.firecracker)

(* --- generator-driven matrix sweep: any cell drawn from the shared
   kernel-matrix generators (Testkit.arb_preset/variant/codec) boots
   verify-green through
   its bzImage path; a failing draw shrinks toward the simplest cell --- *)

let qcheck_generated_cell_boots =
  let envs = Hashtbl.create 9 in
  let env_for preset variant =
    match Hashtbl.find_opt envs (preset, variant) with
    | Some e -> e
    | None ->
        let e = Testkit.make_env ~preset ~variant ~functions:30 () in
        Hashtbl.add envs (preset, variant) e;
        e
  in
  QCheck.Test.make ~count:20
    ~name:"boot-paths: any generated matrix cell boots verify-green"
    QCheck.(triple Testkit.arb_preset Testkit.arb_variant Testkit.arb_codec)
    (fun (preset, variant, codec) ->
      let env = env_for preset variant in
      let rando =
        match variant with
        | Imk_kernel.Config.Nokaslr -> Vm_config.Rando_off
        | Imk_kernel.Config.Kaslr -> Vm_config.Rando_kaslr
        | Imk_kernel.Config.Fgkaslr -> Vm_config.Rando_fgkaslr
      in
      let codec_name, bz =
        match codec with
        | "none-opt" -> ("none", Imk_kernel.Bzimage.None_optimized)
        | c -> (c, Imk_kernel.Bzimage.Standard)
      in
      let path = Testkit.add_bzimage env ~codec:codec_name ~variant:bz in
      let _, r =
        Testkit.boot env ~rando ~flavor:Vm_config.In_monitor_fgkaslr
          ~kernel_path:path ~relocs:None
      in
      r.Vmm.stats.Imk_guest.Runtime.functions_visited = 30)

(* --- ORC policy: only the monitor's direct boot fixes up the ORC
   unwind table, and only when the config asks for it (§4.3 ablation);
   the bootstrap loader leaves it stale, as Linux's does --- *)

let test_orc_policy () =
  let env =
    Testkit.make_env ~variant:Imk_kernel.Config.Fgkaslr ~functions:50
      ~unwinder_orc:true ()
  in
  let orc_of ?flavor ?kernel_path ?relocs orc =
    let _, r =
      Testkit.boot env ~rando:Vm_config.Rando_fgkaslr ~orc ?flavor ?kernel_path ?relocs
    in
    ( r.Vmm.params.Imk_guest.Boot_params.orc_fixed,
      r.Vmm.stats.Imk_guest.Runtime.orc_verified )
  in
  let fixed, verified = orc_of Vm_config.Orc_update in
  check Alcotest.bool "direct, update: fixed" true fixed;
  check Alcotest.bool "direct, update: entries verified" true (verified > 0);
  let fixed, verified = orc_of Vm_config.Orc_skip in
  check Alcotest.bool "direct, skip: stale" false fixed;
  check int "direct, skip: nothing verified" 0 verified;
  let path =
    Testkit.add_bzimage env ~codec:"lz4" ~variant:Imk_kernel.Bzimage.Standard
  in
  List.iter
    (fun (label, orc) ->
      let fixed, verified =
        orc_of ~flavor:Vm_config.In_monitor_fgkaslr ~kernel_path:path ~relocs:None orc
      in
      check Alcotest.bool (label ^ ": stale") false fixed;
      check int (label ^ ": nothing verified") 0 verified)
    [ ("bzImage, update", Vm_config.Orc_update); ("bzImage, skip", Vm_config.Orc_skip) ]

let () =
  Alcotest.run "boot_paths"
    [
      ("matrix", matrix_tests @ [ Testkit.to_alcotest qcheck_generated_cell_boots ]);
      ( "randomization",
        [
          Alcotest.test_case "different seeds differ" `Quick
            test_different_seeds_different_layouts;
          Alcotest.test_case "same seed identical" `Quick
            test_same_seed_same_layout;
          Alcotest.test_case "offsets spread" `Quick test_offsets_spread;
        ] );
      ("capabilities", capability_tests);
      ( "failure injection",
        [
          Alcotest.test_case "relocs-tool output boots" `Quick
            test_relocs_tool_output_boots;
          Alcotest.test_case "corrupt relocs" `Quick test_corrupt_relocs_rejected;
          Alcotest.test_case "wrong relocs" `Quick
            test_wrong_relocs_detected_by_guest;
          Alcotest.test_case "corrupt vmlinux" `Quick
            test_corrupt_vmlinux_rejected;
          Alcotest.test_case "kernel constants note" `Quick
            test_kernel_note_read_and_enforced;
        ] );
      ("orc", [ Alcotest.test_case "orc policy" `Quick test_orc_policy ]);
      ( "cost shape",
        [
          Alcotest.test_case "C1: direct beats bzImage warm" `Quick
            test_claim_direct_beats_bzimage_cached;
          Alcotest.test_case "C4: in-monitor beats self-rando" `Quick
            test_claim_in_monitor_beats_self_rando;
          Alcotest.test_case "C4: kaslr overhead small" `Quick
            test_claim_kaslr_overhead_small;
          Alcotest.test_case "fgkaslr > kaslr" `Quick
            test_claim_fgkaslr_costs_more_than_kaslr;
          Alcotest.test_case "cold slower than warm" `Quick
            test_cold_cache_slower_than_warm;
          Alcotest.test_case "deterministic boots" `Quick
            test_deterministic_without_jitter;
          Alcotest.test_case "qemu profile" `Quick
            test_qemu_profile_slower_in_monitor;
        ] );
    ]

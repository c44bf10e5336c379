(* Quickstart: build a microVM kernel, boot it with in-monitor KASLR, and
   inspect what happened — the smallest end-to-end use of the library.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. "Compile" a kernel: the AWS Firecracker reference config with
     CONFIG_RANDOMIZE_BASE, at the default 1/16 build scale. *)
  let config = Imk_kernel.Config.make Imk_kernel.Config.Aws Imk_kernel.Config.Kaslr in
  let built = Imk_kernel.Image.build config in
  Printf.printf "built %s: vmlinux %s (models %s), %d relocations\n"
    config.Imk_kernel.Config.name
    (Imk_util.Units.bytes_to_string (Bytes.length built.Imk_kernel.Image.vmlinux))
    (Imk_util.Units.bytes_to_string (Imk_kernel.Image.modeled_vmlinux_bytes built))
    (Imk_elf.Relocation.entry_count built.Imk_kernel.Image.relocs);

  (* 2. Put the kernel and its relocation file on the host disk and warm
     the page cache, as a serverless host would between invocations. *)
  let disk = Imk_storage.Disk.create () in
  let cache = Imk_storage.Page_cache.create disk in
  Imk_storage.Disk.add disk ~name:"vmlinux" built.Imk_kernel.Image.vmlinux;
  Imk_storage.Disk.add disk ~name:"vmlinux.relocs" built.Imk_kernel.Image.relocs_bytes;
  Imk_storage.Page_cache.warm cache "vmlinux";
  Imk_storage.Page_cache.warm cache "vmlinux.relocs";

  (* 3. Configure the monitor: Firecracker with the in-monitor KASLR
     patch, relocation info passed as the extra argument (Figure 8). *)
  let vm =
    Imk_monitor.Vm_config.make ~rando:Imk_monitor.Vm_config.Rando_kaslr
      ~relocs_path:(Some "vmlinux.relocs") ~kernel_path:"vmlinux"
      ~kernel_config:config ~seed:2026L ()
  in

  (* 4. Boot, charging costs to a virtual clock. *)
  let trace, charge = Imk_vclock.Charge.fresh () in
  let result = Imk_monitor.Vmm.boot charge cache vm in

  (* 5. Inspect the randomized guest. *)
  let p = result.Imk_monitor.Vmm.params in
  Printf.printf "\nkernel randomized to %#x (offset +%d MiB)\n"
    p.Imk_guest.Boot_params.virt_base
    (Imk_guest.Boot_params.delta p / 1024 / 1024);
  let s = result.Imk_monitor.Vmm.stats in
  Printf.printf
    "guest booted and verified itself: %d functions, %d call sites, %d \
     rodata pointers, %d exception entries\n"
    s.Imk_guest.Runtime.functions_visited s.Imk_guest.Runtime.sites_verified
    s.Imk_guest.Runtime.rodata_verified s.Imk_guest.Runtime.extab_verified;
  Printf.printf "\nboot time breakdown (simulated, paper-calibrated):\n";
  List.iter
    (fun (phase, ns) ->
      Printf.printf "  %-16s %s\n"
        (Imk_vclock.Trace.phase_name phase)
        (Imk_util.Units.ms_string ns))
    (Imk_vclock.Trace.breakdown trace);
  Printf.printf "  %-16s %s\n" "Total"
    (Imk_util.Units.ms_string (Imk_vclock.Trace.total trace));

  (* 6. Ask the guest a question through kallsyms, like a profiler would. *)
  let kallsyms = Imk_guest.Kallsyms.create () in
  let id =
    Imk_guest.Kallsyms.lookup kallsyms charge result.Imk_monitor.Vmm.mem p
      ~va:p.Imk_guest.Boot_params.entry_va
  in
  Printf.printf "\nkallsyms: the entry point resolves to fn_%05d (startup_64)\n" id

(* fcsim: boot a simulated microVM, the way the paper's evaluation invokes
   Firecracker.

   Examples:
     fcsim --kernel aws-kaslr --rando kaslr
     fcsim --kernel ubuntu-fgkaslr --rando fgkaslr --runs 20
     fcsim --kernel lupine-nokaslr --method lz4 --cold
     fcsim --kernel aws-kaslr --rando kaslr --method none-opt --vmm qemu *)

open Cmdliner

(* the kernel, rando and method enums are the vocabularies
   Imk_check.Point.fcsim_commands prints from, so every printed reproducer
   parses here (test_check pins it) *)
let kernel =
  Arg.(
    required
    & opt (some (enum Imk_kernel.Config.kernel_names)) None
    & info [ "kernel"; "k" ] ~docv:"PRESET-VARIANT"
        ~doc:"Guest kernel, e.g. aws-kaslr, lupine-fgkaslr, ubuntu-nokaslr.")

let rando =
  Arg.(
    value
    & opt (enum Imk_monitor.Vm_config.rando_flags) Imk_monitor.Vm_config.Rando_off
    & info [ "rando" ] ~docv:"MODE"
        ~doc:"Randomization: off, kaslr or fgkaslr. In-monitor for direct \
              boots, self-randomization for bzImage methods.")

let method_ =
  Arg.(
    value
    & opt
        (enum
           (("direct", None)
           :: List.map (fun c -> (c, Some c)) Imk_check.Point.codecs))
        None
    & info [ "method"; "m" ] ~docv:"METHOD"
        ~doc:"Boot method: direct (uncompressed vmlinux), or a bzImage: lz4 \
              or gzip, none (unoptimized compression-none), none-opt \
              (optimized compression-none).")

let mem_mib =
  Arg.(
    value & opt int 256
    & info [ "mem" ] ~docv:"MIB" ~doc:"Guest memory in MiB (paper default 256).")

let runs =
  Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc:"Measured boots.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Entropy seed.")

let cold =
  Arg.(
    value & flag
    & info [ "cold" ] ~doc:"Drop the page cache before each boot (Figure 4's \
                            cold-cache protocol). Default warms it first.")

let vmm =
  Arg.(
    value
    & opt (enum [ ("firecracker", `Fc); ("qemu", `Qemu) ]) `Fc
    & info [ "vmm" ] ~docv:"VMM" ~doc:"Cost profile: firecracker or qemu.")

let cmdline =
  Arg.(
    value
    & opt string "console=ttyS0 reboot=k panic=1 pci=off"
    & info [ "cmdline" ] ~docv:"ARGS"
        ~doc:"Guest kernel command line. The bootstrap loader honours \
              nokaslr and nofgkaslr flags (direct-boot in-monitor \
              randomization is host policy and ignores them).")

let with_devices =
  Arg.(
    value & flag
    & info [ "devices" ]
        ~doc:"Attach a Lambda-style device set (serial, virtio-blk rootfs, \
              virtio-net).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write the boot timeline as Chrome tracing JSON (load in \
              chrome://tracing or Perfetto).")

let deferred_kallsyms =
  Arg.(
    value & flag
    & info [ "deferred-kallsyms" ]
        ~doc:"Defer the FGKASLR kallsyms fixup to first access (§4.3).")

let functions =
  Arg.(
    value
    & opt (some int) None
    & info [ "functions" ] ~docv:"N"
        ~doc:"Override every kernel's function count (the diffcheck \
              shrinker's size knob — its reproducer commands carry this \
              flag so the boot matches the minimized campaign point).")

let jobs =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for repeated boots (--runs). Results are \
              bit-identical for any N; defaults to the recommended domain \
              count.")

let run kernel rando method_ mem_mib runs seed cold vmm cmdline with_devices
    trace_out deferred_kallsyms functions jobs =
  let preset, variant = kernel in
  let ws = Imk_harness.Workspace.create ?functions_override:functions () in
  let kernel_config = Imk_harness.Workspace.config ws preset variant in
  let profile =
    match vmm with
    | `Fc -> Imk_monitor.Profiles.firecracker
    | `Qemu -> Imk_monitor.Profiles.qemu
  in
  let kallsyms =
    if deferred_kallsyms then Imk_monitor.Vm_config.Kallsyms_deferred
    else Imk_monitor.Vm_config.Kallsyms_eager
  in
  let mem = mem_mib * 1024 * 1024 in
  let vm =
    match method_ with
    | None ->
        Imk_harness.Workspace.direct_vm ws preset variant ~rando ~kallsyms
          ~profile ~mem ()
    | Some meth ->
        Imk_harness.Workspace.bz_vm ws preset variant ~meth ~rando
          ~loader:Imk_monitor.Vm_config.Loader_default ~profile ~mem ()
  in
  let devices =
    if not with_devices then []
    else begin
      Imk_storage.Disk.add
        (Imk_harness.Workspace.disk ws)
        ~name:"rootfs.img"
        (Imk_kernel.Rootfs.make ~size:(512 * 1024) ~seed:7L);
      [
        Imk_monitor.Devices.Serial;
        Imk_monitor.Devices.Virtio_blk { image = "rootfs.img" };
        Imk_monitor.Devices.Virtio_net;
      ]
    end
  in
  let vm =
    { vm with Imk_monitor.Vm_config.boot_args = cmdline; devices; kallsyms }
  in
  if not cold then Imk_harness.Workspace.warm_all ws;
  (* one verbose boot with the requested seed *)
  let trace, result =
    Imk_harness.Boot_runner.boot_once ~jitter:false ~seed:(Int64.of_int seed)
      ~cache:(Imk_harness.Workspace.cache ws) vm
  in
  let p = result.Imk_monitor.Vmm.params in
  Printf.printf "booted %s via %s (%s)\n" kernel_config.Imk_kernel.Config.name
    (match method_ with None -> "direct boot" | Some m -> "bzImage/" ^ m)
    profile.Imk_monitor.Profiles.name;
  Printf.printf "  virt base    %#x (offset %#x)\n"
    p.Imk_guest.Boot_params.virt_base
    (Imk_guest.Boot_params.delta p);
  Printf.printf "  phys load    %#x\n" p.Imk_guest.Boot_params.phys_load;
  Printf.printf "  entry        %#x\n" p.Imk_guest.Boot_params.entry_va;
  let st = result.Imk_monitor.Vmm.stats in
  Printf.printf
    "  verified     %d functions, %d call sites, %d rodata ptrs, %d extab\n"
    st.Imk_guest.Runtime.functions_visited st.Imk_guest.Runtime.sites_verified
    st.Imk_guest.Runtime.rodata_verified st.Imk_guest.Runtime.extab_verified;
  List.iter
    (fun (phase, ns) ->
      Printf.printf "  %-16s %s\n"
        (Imk_vclock.Trace.phase_name phase)
        (Imk_util.Units.ms_string ns))
    (Imk_vclock.Trace.breakdown trace);
  Printf.printf "  %-16s %s\n" "Total"
    (Imk_util.Units.ms_string (Imk_vclock.Trace.total trace));
  (match trace_out with
  | None -> ()
  | Some path ->
      Imk_vclock.Trace_export.write_file trace ~path
        ~process_name:(kernel_config.Imk_kernel.Config.name ^ " boot");
      Printf.printf "trace written to %s\n" path);
  if runs > 1 then begin
    let stats =
      Imk_harness.Boot_runner.boot_many ~cold ~jobs ~runs
        ~cache:(Imk_harness.Workspace.cache ws) vm
    in
    let s = stats.Imk_harness.Boot_runner.total in
    let ms = Imk_util.Units.ns_float_to_ms in
    Printf.printf "over %d boots: mean %.2f ms  min %.2f  max %.2f  sd %.2f\n"
      runs
      (ms s.Imk_util.Stats.mean)
      (ms s.Imk_util.Stats.min)
      (ms s.Imk_util.Stats.max)
      (ms s.Imk_util.Stats.stddev);
    Printf.printf "              p50 %.2f ms  p90 %.2f  p99 %.2f\n"
      (ms s.Imk_util.Stats.p50)
      (ms s.Imk_util.Stats.p90)
      (ms s.Imk_util.Stats.p99)
  end;
  0

let cmd =
  let doc = "boot a simulated microVM with in-monitor (FG)KASLR" in
  Cmd.v
    (Cmd.info "fcsim" ~doc)
    Term.(
      const run $ kernel $ rando $ method_ $ mem_mib $ runs $ seed $ cold
      $ vmm $ cmdline $ with_devices $ trace_out $ deferred_kallsyms
      $ functions $ jobs)

let () = exit (Cmd.eval' cmd)

(* Tests for Imk_guest.Boot_info and Imk_kernel.Initrd, plus their
   integration: cmdline randomization veto flags (§5.1), initrd loading
   and the guest's validation of both. *)

open Imk_monitor
open Imk_guest

let check = Alcotest.check
let int = Alcotest.int

let sample ?(proto = Boot_info.Proto_linux64) ?(cmdline = "console=ttyS0")
    ?(initrd = None) ~mem_bytes () =
  {
    Boot_info.proto;
    cmdline;
    e820 = Boot_info.e820_of_mem ~mem_bytes;
    initrd;
  }

let mem_64m () = Imk_memory.Guest_mem.create ~size:(64 * 1024 * 1024)

let test_roundtrip () =
  let mem = mem_64m () in
  let t = sample ~cmdline:"console=ttyS0 quiet nokaslr" ~mem_bytes:(64 * 1024 * 1024) () in
  Boot_info.write mem t;
  let back = Boot_info.read mem in
  check Alcotest.string "cmdline" t.Boot_info.cmdline back.Boot_info.cmdline;
  check int "e820 entries" 3 (List.length back.Boot_info.e820);
  check Alcotest.bool "no initrd" true (back.Boot_info.initrd = None)

let test_pvh_roundtrip () =
  let mem = mem_64m () in
  let t =
    sample ~proto:Boot_info.Proto_pvh ~initrd:(Some (0x2000000, 4096))
      ~mem_bytes:(64 * 1024 * 1024) ()
  in
  Boot_info.write mem t;
  let back = Boot_info.read mem in
  check Alcotest.bool "pvh" true (back.Boot_info.proto = Boot_info.Proto_pvh);
  check Alcotest.bool "initrd" true (back.Boot_info.initrd = Some (0x2000000, 4096))

let test_e820_shape () =
  let entries = Boot_info.e820_of_mem ~mem_bytes:(128 * 1024 * 1024) in
  match entries with
  | [ low; hole; high ] ->
      check Alcotest.bool "low usable" true low.Boot_info.usable;
      check Alcotest.bool "hole reserved" true (not hole.Boot_info.usable);
      check int "high covers rest"
        (128 * 1024 * 1024)
        (high.Boot_info.base + high.Boot_info.size)
  | _ -> Alcotest.fail "expected three entries"

let test_has_flag () =
  let t = sample ~cmdline:"console=ttyS0 nokaslr panic=1" ~mem_bytes:4096000 () in
  check Alcotest.bool "nokaslr" true (Boot_info.has_flag t "nokaslr");
  check Alcotest.bool "substring no match" false (Boot_info.has_flag t "kaslr");
  check Alcotest.bool "absent" false (Boot_info.has_flag t "nofgkaslr")

let test_write_rejects_long_cmdline () =
  let mem = mem_64m () in
  let t = sample ~cmdline:(String.make 4000 'x') ~mem_bytes:(64 * 1024 * 1024) () in
  check Alcotest.bool "rejected" true
    (try
       Boot_info.write mem t;
       false
     with Boot_info.Invalid _ -> true)

let test_read_rejects_garbage () =
  let mem = mem_64m () in
  check Alcotest.bool "bad magic" true
    (try
       ignore (Boot_info.read mem);
       false
     with Boot_info.Invalid _ -> true)

let test_validate_rejects_bad_map () =
  let mem = mem_64m () in
  let t =
    {
      (sample ~mem_bytes:(64 * 1024 * 1024) ()) with
      Boot_info.e820 =
        [
          { Boot_info.base = 0; size = 1024; usable = true };
          (* overlapping *)
          { Boot_info.base = 512; size = 2048; usable = true };
        ];
    }
  in
  Boot_info.write mem t;
  check Alcotest.bool "overlap rejected" true
    (try
       ignore (Boot_info.validate mem ~mem_bytes:(64 * 1024 * 1024));
       false
     with Boot_info.Invalid _ -> true)

(* --- initrd --- *)

let test_initrd_roundtrip () =
  let image = Imk_kernel.Initrd.make ~size:8192 ~seed:3L in
  check int "exact size" 8192 (Bytes.length image);
  Imk_kernel.Initrd.validate image

let test_initrd_detects_corruption () =
  let image = Imk_kernel.Initrd.make ~size:4096 ~seed:3L in
  Bytes.set image 2000 (Char.chr (Char.code (Bytes.get image 2000) lxor 1));
  check Alcotest.bool "corrupt" true
    (try
       Imk_kernel.Initrd.validate image;
       false
     with Imk_kernel.Initrd.Corrupt _ -> true)

let test_initrd_truncation () =
  check Alcotest.bool "truncated" true
    (try
       Imk_kernel.Initrd.validate (Bytes.create 4);
       false
     with Imk_kernel.Initrd.Corrupt _ -> true)

(* --- integration through the monitor --- *)

let test_boot_with_initrd () =
  let env = Testkit.make_env ~functions:40 () in
  let initrd = Imk_kernel.Initrd.make ~size:(256 * 1024) ~seed:9L in
  Imk_storage.Disk.add env.Testkit.disk ~name:"initrd.img" initrd;
  let vm =
    Vm_config.make ~rando:Vm_config.Rando_kaslr
      ~relocs_path:(Some (Testkit.relocs_path env))
      ~initrd_path:(Some "initrd.img")
      ~mem_bytes:(64 * 1024 * 1024)
      ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg ()
  in
  let _, ch = Imk_vclock.Charge.fresh () in
  let r = Vmm.boot ch env.Testkit.cache vm in
  (* guest saw and validated the ramdisk *)
  let info =
    Boot_info.read r.Vmm.mem
  in
  check Alcotest.bool "initrd advertised" true (info.Boot_info.initrd <> None)

let test_boot_with_corrupt_initrd_panics () =
  let env = Testkit.make_env ~functions:40 () in
  let initrd = Imk_kernel.Initrd.make ~size:(64 * 1024) ~seed:9L in
  Bytes.set initrd 100 '\xAA';
  Imk_storage.Disk.add env.Testkit.disk ~name:"bad-initrd.img" initrd;
  let vm =
    Vm_config.make ~rando:Vm_config.Rando_off
      ~initrd_path:(Some "bad-initrd.img")
      ~mem_bytes:(64 * 1024 * 1024)
      ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg ()
  in
  let _, ch = Imk_vclock.Charge.fresh () in
  check Alcotest.bool "panics" true
    (try
       ignore (Vmm.boot ch env.Testkit.cache vm);
       false
     with Imk_guest.Runtime.Panic _ -> true)

let bz_boot env ~boot_args ~rando =
  let path =
    Testkit.add_bzimage env ~codec:"none"
      ~variant:Imk_kernel.Bzimage.None_optimized
  in
  let vm =
    Vm_config.make ~flavor:Vm_config.In_monitor_fgkaslr ~rando ~boot_args
      ~mem_bytes:(64 * 1024 * 1024) ~kernel_path:path
      ~kernel_config:env.Testkit.cfg ~seed:77L ()
  in
  let _, ch = Imk_vclock.Charge.fresh () in
  Vmm.boot ch env.Testkit.cache vm

let test_cmdline_nokaslr_vetoes_loader_rando () =
  let env = Testkit.make_env ~functions:40 ~variant:Imk_kernel.Config.Kaslr () in
  let r =
    bz_boot env ~boot_args:"console=ttyS0 nokaslr" ~rando:Vm_config.Rando_kaslr
  in
  check int "no offset despite kaslr request" 0
    (Imk_guest.Boot_params.delta r.Vmm.params)

let test_cmdline_nofgkaslr_downgrades () =
  let env =
    Testkit.make_env ~functions:40 ~variant:Imk_kernel.Config.Fgkaslr ()
  in
  let r =
    bz_boot env ~boot_args:"console=ttyS0 nofgkaslr"
      ~rando:Vm_config.Rando_fgkaslr
  in
  (* base randomization still applied... *)
  check Alcotest.bool "still kaslr" true
    (Imk_guest.Boot_params.delta r.Vmm.params <> 0);
  (* ...but no shuffle: functions remain in link order *)
  let _, ch = Imk_vclock.Charge.fresh () in
  let fn_va =
    Imk_lebench.Runner.layout_of_guest ch r.Vmm.mem r.Vmm.params
  in
  let sorted = Array.for_all2 ( = ) fn_va (let c = Array.copy fn_va in Array.sort compare c; c) in
  check Alcotest.bool "link order preserved" true sorted

let test_cmdline_flags_ignored_by_direct_boot () =
  (* in-monitor randomization is host policy; guest flags cannot veto it *)
  let env = Testkit.make_env ~functions:40 () in
  let vm =
    Vm_config.make ~rando:Vm_config.Rando_kaslr
      ~boot_args:"console=ttyS0 nokaslr"
      ~relocs_path:(Some (Testkit.relocs_path env))
      ~mem_bytes:(64 * 1024 * 1024)
      ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg
      ~seed:5L ()
  in
  let _, ch = Imk_vclock.Charge.fresh () in
  let r = Vmm.boot ch env.Testkit.cache vm in
  check Alcotest.bool "still randomized" true
    (Imk_guest.Boot_params.delta r.Vmm.params <> 0)

let qcheck_boot_info_roundtrip =
  QCheck.Test.make ~name:"boot info: read ∘ write = id" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 200)) bool)
    (fun (raw_cmdline, pvh) ->
      (* NULs terminate C strings; the encoding stores length explicitly
         but keep the generator realistic *)
      let cmdline =
        String.map (fun c -> if c = '\000' then ' ' else c) raw_cmdline
      in
      let mem = mem_64m () in
      let t =
        sample
          ~proto:(if pvh then Boot_info.Proto_pvh else Boot_info.Proto_linux64)
          ~cmdline ~mem_bytes:(64 * 1024 * 1024) ()
      in
      Boot_info.write mem t;
      Boot_info.read mem = t)

let () =
  Alcotest.run "boot_info"
    [
      ( "encode/decode",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "pvh" `Quick test_pvh_roundtrip;
          Alcotest.test_case "e820 shape" `Quick test_e820_shape;
          Alcotest.test_case "has_flag" `Quick test_has_flag;
          Alcotest.test_case "long cmdline" `Quick
            test_write_rejects_long_cmdline;
          Alcotest.test_case "garbage" `Quick test_read_rejects_garbage;
          Alcotest.test_case "bad e820" `Quick test_validate_rejects_bad_map;
          Testkit.to_alcotest qcheck_boot_info_roundtrip;
        ] );
      ( "initrd",
        [
          Alcotest.test_case "roundtrip" `Quick test_initrd_roundtrip;
          Alcotest.test_case "corruption" `Quick test_initrd_detects_corruption;
          Alcotest.test_case "truncation" `Quick test_initrd_truncation;
        ] );
      ( "integration",
        [
          Alcotest.test_case "boot with initrd" `Quick test_boot_with_initrd;
          Alcotest.test_case "corrupt initrd panics" `Quick
            test_boot_with_corrupt_initrd_panics;
          Alcotest.test_case "nokaslr vetoes loader" `Quick
            test_cmdline_nokaslr_vetoes_loader_rando;
          Alcotest.test_case "nofgkaslr downgrades" `Quick
            test_cmdline_nofgkaslr_downgrades;
          Alcotest.test_case "direct boot ignores flags" `Quick
            test_cmdline_flags_ignored_by_direct_boot;
        ] );
    ]

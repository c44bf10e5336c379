(* Tests for Imk_monitor.Devices and Imk_kernel.Rootfs: device cost
   shapes, rootfs superblock validation, and device integration through
   full boots. *)

open Imk_monitor

let check = Alcotest.check
let int = Alcotest.int

let test_rootfs_roundtrip () =
  let image = Imk_kernel.Rootfs.make ~size:(64 * 1024) ~seed:5L in
  check int "exact size" (64 * 1024) (Bytes.length image);
  Imk_kernel.Rootfs.mount_check
    (Bytes.sub image 0 Imk_kernel.Rootfs.superblock_bytes)

let test_rootfs_corruption () =
  let image = Imk_kernel.Rootfs.make ~size:(16 * 1024) ~seed:5L in
  Bytes.set image 100 'X';
  check Alcotest.bool "corrupt" true
    (try
       Imk_kernel.Rootfs.mount_check
         (Bytes.sub image 0 Imk_kernel.Rootfs.superblock_bytes);
       false
     with Imk_kernel.Rootfs.Corrupt _ -> true)

let test_rootfs_too_small () =
  Alcotest.check_raises "too small" (Invalid_argument "Rootfs.make: size too small")
    (fun () -> ignore (Imk_kernel.Rootfs.make ~size:100 ~seed:1L))

let test_device_costs_shape () =
  let fc = Profiles.firecracker and qemu = Profiles.qemu in
  List.iter
    (fun d ->
      check Alcotest.bool (Devices.name d ^ " qemu heavier") true
        (Devices.monitor_setup_ns qemu d > Devices.monitor_setup_ns fc d);
      check Alcotest.bool (Devices.name d ^ " probe positive") true
        (Devices.guest_probe_ns d > 0))
    [ Devices.Serial; Devices.Virtio_blk { image = "x" }; Devices.Virtio_net ]

let test_blk_read_lazy_costing () =
  let env = Testkit.make_env () in
  Imk_storage.Disk.add env.Testkit.disk ~name:"disk.img"
    (Imk_kernel.Rootfs.make ~size:(1024 * 1024) ~seed:2L);
  Imk_storage.Page_cache.drop_caches env.Testkit.cache;
  let trace, ch = Imk_vclock.Charge.fresh () in
  let clock = Imk_vclock.Trace.clock trace in
  let _ = Devices.blk_read ch env.Testkit.cache ~image:"disk.img" ~off:0 ~len:4096 in
  let cold_small = Imk_vclock.Clock.now clock in
  (* cold 4K read must cost far less than a cold 1M read would *)
  Imk_storage.Page_cache.drop_caches env.Testkit.cache;
  let trace2, ch2 = Imk_vclock.Charge.fresh () in
  let clock2 = Imk_vclock.Trace.clock trace2 in
  let _ =
    Devices.blk_read ch2 env.Testkit.cache ~image:"disk.img" ~off:0
      ~len:(1024 * 1024)
  in
  check Alcotest.bool "lazy: cost scales with span" true
    (Imk_vclock.Clock.now clock2 > 10 * cold_small)

let test_blk_read_bounds () =
  let env = Testkit.make_env () in
  Imk_storage.Disk.add env.Testkit.disk ~name:"disk.img" (Bytes.create 4096);
  let _, ch = Imk_vclock.Charge.fresh () in
  Alcotest.check_raises "range" (Invalid_argument "Devices.blk_read: out of range")
    (fun () ->
      ignore
        (Devices.blk_read ch env.Testkit.cache ~image:"disk.img" ~off:4000
           ~len:4096))

let boot_with ?(devices = []) env =
  let vm =
    Vm_config.make ~rando:Vm_config.Rando_kaslr
      ~relocs_path:(Some (Testkit.relocs_path env))
      ~devices ~mem_bytes:(64 * 1024 * 1024)
      ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg ()
  in
  let trace, ch = Imk_vclock.Charge.fresh () in
  let r = Vmm.boot ch env.Testkit.cache vm in
  (trace, r)

let test_boot_with_device_set () =
  let env = Testkit.make_env ~functions:40 () in
  Imk_storage.Disk.add env.Testkit.disk ~name:"rootfs.img"
    (Imk_kernel.Rootfs.make ~size:(128 * 1024) ~seed:3L);
  (* warm the cache so bare-vs-devices is not a cold-vs-warm comparison *)
  let _ = boot_with env in
  let bare_trace, _ = boot_with env in
  let full_trace, r =
    boot_with env
      ~devices:
        [ Devices.Serial; Devices.Virtio_blk { image = "rootfs.img" };
          Devices.Virtio_net ]
  in
  check int "still verifies" 40 r.Vmm.stats.Imk_guest.Runtime.functions_visited;
  check Alcotest.bool "devices cost time" true
    (Imk_vclock.Trace.total full_trace > Imk_vclock.Trace.total bare_trace)

let test_boot_missing_backing_file () =
  let env = Testkit.make_env ~functions:40 () in
  check Alcotest.bool "boot error" true
    (try
       ignore
         (boot_with env ~devices:[ Devices.Virtio_blk { image = "absent.img" } ]);
       false
     with Vmm.Boot_error _ -> true)

let test_boot_corrupt_rootfs_panics () =
  let env = Testkit.make_env ~functions:40 () in
  let image = Imk_kernel.Rootfs.make ~size:(64 * 1024) ~seed:3L in
  Bytes.set image 64 '\x00';
  Imk_storage.Disk.add env.Testkit.disk ~name:"bad.img" image;
  check Alcotest.bool "guest panics at mount" true
    (try
       ignore (boot_with env ~devices:[ Devices.Virtio_blk { image = "bad.img" } ]);
       false
     with Imk_guest.Runtime.Panic _ -> true)

let () =
  Alcotest.run "devices"
    [
      ( "rootfs",
        [
          Alcotest.test_case "roundtrip" `Quick test_rootfs_roundtrip;
          Alcotest.test_case "corruption" `Quick test_rootfs_corruption;
          Alcotest.test_case "too small" `Quick test_rootfs_too_small;
        ] );
      ( "device model",
        [
          Alcotest.test_case "cost shape" `Quick test_device_costs_shape;
          Alcotest.test_case "lazy blk reads" `Quick test_blk_read_lazy_costing;
          Alcotest.test_case "blk bounds" `Quick test_blk_read_bounds;
        ] );
      ( "integration",
        [
          Alcotest.test_case "full device set" `Quick test_boot_with_device_set;
          Alcotest.test_case "missing backing file" `Quick
            test_boot_missing_backing_file;
          Alcotest.test_case "corrupt rootfs" `Quick
            test_boot_corrupt_rootfs_panics;
        ] );
    ]

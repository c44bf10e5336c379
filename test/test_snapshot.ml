(* Tests for Imk_monitor.Snapshot and Zygote: capture/restore fidelity,
   layout cloning (the §7 weakness), pool diversity, and cost shape
   (restore ≪ boot). *)

open Imk_monitor

let check = Alcotest.check
let int = Alcotest.int

let booted ?(seed = 21L) () =
  let env = Testkit.make_env ~functions:50 () in
  let trace, r = Testkit.boot env ~seed in
  (env, trace, r)

let test_capture_restore_verifies () =
  let _, _, r = booted () in
  let snap = Snapshot.capture r in
  let _, ch = Imk_vclock.Charge.fresh () in
  let restored = Snapshot.restore ch snap ~working_set_pages:64 in
  check int "all functions verified" 50
    restored.Vmm.stats.Imk_guest.Runtime.functions_visited;
  (* the clone is exact, including its randomization *)
  check int "same virtual base"
    r.Vmm.params.Imk_guest.Boot_params.virt_base
    restored.Vmm.params.Imk_guest.Boot_params.virt_base

let test_capture_is_deep () =
  let _, _, r = booted () in
  let snap = Snapshot.capture r in
  let before = Snapshot.layout_seed_of snap in
  (* mutating the source VM must not change the snapshot *)
  Imk_memory.Guest_mem.zero r.Vmm.mem
    ~pa:r.Vmm.params.Imk_guest.Boot_params.phys_load ~len:4096;
  check int "snapshot unaffected" before (Snapshot.layout_seed_of snap)

let dirty_ranges m =
  List.rev
    (Imk_memory.Guest_mem.fold_dirty_ranges m ~init:[] ~f:(fun acc ~lo ~hi ->
         (lo, hi) :: acc))

let test_capture_leaves_tracker_untouched () =
  (* the old full-image capture took the whole backing store, which
     conservatively dirtied the whole guest — a snapshotted boot's next
     arena scrub became a whole-guest re-zero. Capture (and the layout
     probe) must be invisible to the tracker. *)
  let _, _, r = booted () in
  let extent_before = Imk_memory.Guest_mem.dirty_extent r.Vmm.mem in
  let ranges_before = dirty_ranges r.Vmm.mem in
  let snap = Snapshot.capture r in
  ignore (Snapshot.layout_seed_of snap);
  check Alcotest.bool "dirty extent unchanged by capture" true
    (extent_before = Imk_memory.Guest_mem.dirty_extent r.Vmm.mem);
  check Alcotest.bool "dirty ranges unchanged by capture" true
    (ranges_before = dirty_ranges r.Vmm.mem);
  (* scrub cost = bytes the tracker reports; it must match an identical
     boot that was never snapshotted, and stay below a whole-guest
     re-zero *)
  let _, _, plain = booted () in
  check Alcotest.bool "scrub cost identical to a non-snapshotted boot"
    true
    (dirty_ranges r.Vmm.mem = dirty_ranges plain.Vmm.mem);
  let dirty_bytes =
    List.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0
      (dirty_ranges r.Vmm.mem)
  in
  check Alcotest.bool "scrub stays below a whole-guest re-zero" true
    (dirty_bytes < Imk_memory.Guest_mem.size r.Vmm.mem)

let test_restore_is_cow_clone () =
  let _, _, r = booted () in
  let snap = Snapshot.capture r in
  let blob = Snapshot.serialize snap in
  let restore () =
    let _, ch = Imk_vclock.Charge.fresh () in
    Snapshot.restore ch snap ~working_set_pages:64
  in
  check Alcotest.bool "no image before a restore" false
    (Snapshot.image_built snap);
  let a = restore () in
  check Alcotest.bool "the first restore builds the image" true
    (Snapshot.image_built snap);
  (* the clone is dirty exactly where the captured boot was *)
  check Alcotest.bool "clone dirty ranges = the boot's" true
    (dirty_ranges a.Vmm.mem = dirty_ranges r.Vmm.mem);
  (* wreck one clone: neither the image nor a later clone sees it *)
  let phys_load = r.Vmm.params.Imk_guest.Boot_params.phys_load in
  Imk_memory.Guest_mem.zero a.Vmm.mem ~pa:phys_load ~len:(64 * 1024);
  Imk_memory.Guest_mem.scrub a.Vmm.mem;
  let b = restore () in
  check int "a later clone verifies" 50
    b.Vmm.stats.Imk_guest.Runtime.functions_visited;
  check Alcotest.bool "a later clone re-captures byte-identically" true
    (Bytes.equal blob (Snapshot.serialize (Snapshot.capture b)));
  check Alcotest.bool "the wrecked clone scrubbed to zero" true
    (Imk_memory.Guest_mem.dirty_extent a.Vmm.mem = None
    && Imk_memory.Guest_mem.get_i64 a.Vmm.mem ~pa:phys_load = 0L)

let test_restore_cheaper_than_boot () =
  let _, boot_trace, r = booted () in
  let snap = Snapshot.capture r in
  let trace, ch = Imk_vclock.Charge.fresh () in
  let _ = Snapshot.restore ch snap ~working_set_pages:256 in
  check Alcotest.bool "restore ≪ boot" true
    (Imk_vclock.Trace.total trace * 5 < Imk_vclock.Trace.total boot_trace)

let test_restore_charges_working_set () =
  let _, _, r = booted () in
  let snap = Snapshot.capture r in
  let small =
    let trace, ch = Imk_vclock.Charge.fresh () in
    ignore (Snapshot.restore ch snap ~working_set_pages:16);
    Imk_vclock.Trace.total trace
  in
  let large =
    let trace, ch = Imk_vclock.Charge.fresh () in
    ignore (Snapshot.restore ch snap ~working_set_pages:4096);
    Imk_vclock.Trace.total trace
  in
  check Alcotest.bool "more faults cost more" true (large > small)

let test_serialize_roundtrip () =
  let _, _, r = booted () in
  let snap = Snapshot.capture r in
  let blob = Snapshot.serialize snap in
  let reloaded = Snapshot.load ~config:r.Vmm.config blob in
  check int "layout seed survives" (Snapshot.layout_seed_of snap)
    (Snapshot.layout_seed_of reloaded);
  let _, ch = Imk_vclock.Charge.fresh () in
  let restored = Snapshot.restore ch reloaded ~working_set_pages:64 in
  check int "reloaded clone verifies" 50
    restored.Vmm.stats.Imk_guest.Runtime.functions_visited;
  check int "same virtual base"
    r.Vmm.params.Imk_guest.Boot_params.virt_base
    restored.Vmm.params.Imk_guest.Boot_params.virt_base

let expect_corrupt name f =
  match f () with
  | (_ : Snapshot.t) -> Alcotest.failf "%s: corruption not detected" name
  | exception Snapshot.Corrupt _ -> ()

(* one boot shared by the corruption tests: serializing a 64 MiB guest per
   qcheck case would dominate the suite's runtime *)
let snapshot_fixture =
  lazy
    (let _, _, r = booted ~seed:77L () in
     (Snapshot.serialize (Snapshot.capture r), r.Vmm.config))

let qcheck_load_rejects_bit_flips =
  QCheck.Test.make ~count:60
    ~name:"snapshot: any single flipped bit fails load with Corrupt"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let blob, config = Lazy.force snapshot_fixture in
      let mangled = Imk_fault.Inject.flip_one_bit ~seed (Bytes.copy blob) in
      match Snapshot.load ~config mangled with
      | (_ : Snapshot.t) -> false
      | exception Snapshot.Corrupt _ -> true)

let test_load_rejects_truncation () =
  let blob, config = Lazy.force snapshot_fixture in
  List.iter
    (fun keep ->
      expect_corrupt
        (Printf.sprintf "truncated to %d bytes" keep)
        (fun () -> Snapshot.load ~config (Bytes.sub blob 0 keep)))
    [ 0; 4; 111; Bytes.length blob - 1; Bytes.length blob - 3 ]

let test_load_rejects_bad_magic () =
  let blob, config = Lazy.force snapshot_fixture in
  let blob = Bytes.copy blob in
  Bytes.set blob 0 'X';
  expect_corrupt "bad magic" (fun () -> Snapshot.load ~config blob)

(* a CRC-valid blob whose header claims another guest size: [fields]
   are the header offsets rewritten (32: the boot parameters' memory
   size, 100: the guest size the frames reconstruct) *)
let claiming blob ~fields size =
  let b = Bytes.copy blob in
  List.iter (fun off -> Imk_util.Byteio.set_addr b off size) fields;
  let n = Bytes.length b in
  Imk_util.Byteio.set_u32 b (n - 4) (Imk_util.Crc.crc32 b 0 (n - 4));
  b

let test_load_rejects_size_claims () =
  let blob, config = Lazy.force snapshot_fixture in
  let size = config.Vm_config.mem_bytes in
  let restore config b =
    let _, ch = Imk_vclock.Charge.fresh () in
    Snapshot.restore ch (Snapshot.load ~config b) ~working_set_pages:64
  in
  let rejected name f =
    match f () with
    | (_ : Vmm.boot_result) -> Alcotest.failf "%s: restored" name
    | exception (Snapshot.Corrupt _ as e) ->
        check Alcotest.bool (name ^ ": classified") true
          (Imk_fault.Failure.classify e <> None)
  in
  List.iter
    (fun claim ->
      rejected
        (Printf.sprintf "claims %d bytes" claim)
        (fun () -> restore config (claiming blob ~fields:[ 32; 100 ] claim)))
    [ 1 lsl 61; max_int; 1 lsl 40; 2 * size ];
  rejected "header sizes disagree" (fun () ->
      restore
        { config with Vm_config.mem_bytes = 2 * size }
        (claiming blob ~fields:[ 100 ] (2 * size)));
  rejected "config of another size" (fun () ->
      restore { config with Vm_config.mem_bytes = size / 2 } blob);
  check int "the pristine blob still restores" 50
    (restore config blob).Vmm.stats.Imk_guest.Runtime.functions_visited

let test_layout_seed_distinguishes () =
  let env = Testkit.make_env ~functions:50 () in
  let _, a = Testkit.boot env ~seed:1L in
  let _, b = Testkit.boot env ~seed:2L in
  check Alcotest.bool "different layouts fingerprint differently" true
    (Snapshot.layout_seed_of (Snapshot.capture a)
    <> Snapshot.layout_seed_of (Snapshot.capture b))

let make_pool_env () =
  let env = Testkit.make_env ~functions:50 () in
  let make_vm ~seed =
    Vm_config.make ~rando:Vm_config.Rando_kaslr
      ~relocs_path:(Some (Testkit.relocs_path env))
      ~mem_bytes:(64 * 1024 * 1024)
      ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg
      ~seed ()
  in
  (env, make_vm)

let test_zygote_pool_diversity () =
  let env, make_vm = make_pool_env () in
  let _, ch = Imk_vclock.Charge.fresh () in
  let pool = Zygote.build ch env.Testkit.cache ~make_vm ~size:6 in
  check int "size" 6 (Zygote.size pool);
  check int "all layouts distinct" 6 (Zygote.distinct_layouts pool);
  (* pool cost scales with the pool (the Morula trade the paper
     highlights), but framed snapshots cost the bytes each boot wrote,
     not 6 whole guests *)
  let bytes = Zygote.memory_bytes pool in
  check Alcotest.bool "each snapshot carries real pages" true
    (bytes > 6 * 4096);
  check Alcotest.bool "frames cost less than full guests" true
    (bytes < 6 * 64 * 1024 * 1024)

let test_zygote_draw_verifies () =
  let env, make_vm = make_pool_env () in
  let _, ch = Imk_vclock.Charge.fresh () in
  let pool = Zygote.build ch env.Testkit.cache ~make_vm ~size:3 in
  let rng = Imk_entropy.Prng.create ~seed:9L in
  for _ = 1 to 5 do
    let r = Zygote.draw ch pool ~rng ~working_set_pages:32 in
    check int "verified" 50 r.Vmm.stats.Imk_guest.Runtime.functions_visited
  done

let test_zygote_empty_rejected () =
  let env, make_vm = make_pool_env () in
  let _, ch = Imk_vclock.Charge.fresh () in
  Alcotest.check_raises "empty pool" (Invalid_argument "Zygote.build: empty pool")
    (fun () -> ignore (Zygote.build ch env.Testkit.cache ~make_vm ~size:0))

let test_zygote_draws_repeat_layouts () =
  (* the residual weakness: a pool cycles a finite set of layouts *)
  let env, make_vm = make_pool_env () in
  let _, ch = Imk_vclock.Charge.fresh () in
  let pool = Zygote.build ch env.Testkit.cache ~make_vm ~size:2 in
  let rng = Imk_entropy.Prng.create ~seed:13L in
  let bases = Hashtbl.create 4 in
  for _ = 1 to 10 do
    let r = Zygote.draw ch pool ~rng ~working_set_pages:8 in
    Hashtbl.replace bases r.Vmm.params.Imk_guest.Boot_params.virt_base ()
  done;
  check Alcotest.bool "at most pool-size layouts" true (Hashtbl.length bases <= 2)

let () =
  Alcotest.run "snapshot+zygote"
    [
      ( "snapshot",
        [
          Alcotest.test_case "capture/restore verifies" `Quick
            test_capture_restore_verifies;
          Alcotest.test_case "capture is deep" `Quick test_capture_is_deep;
          Alcotest.test_case "capture leaves tracker untouched" `Quick
            test_capture_leaves_tracker_untouched;
          Alcotest.test_case "restore is a copy-on-write clone" `Quick
            test_restore_is_cow_clone;
          Alcotest.test_case "restore cheaper than boot" `Quick
            test_restore_cheaper_than_boot;
          Alcotest.test_case "working-set cost" `Quick
            test_restore_charges_working_set;
          Alcotest.test_case "layout fingerprint" `Quick
            test_layout_seed_distinguishes;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "serialize/load round-trip" `Quick
            test_serialize_roundtrip;
          Alcotest.test_case "truncation rejected" `Quick
            test_load_rejects_truncation;
          Alcotest.test_case "bad magic rejected" `Quick
            test_load_rejects_bad_magic;
          Alcotest.test_case "guest size claims rejected" `Quick
            test_load_rejects_size_claims;
          Testkit.to_alcotest qcheck_load_rejects_bit_flips;
        ] );
      ( "zygote",
        [
          Alcotest.test_case "pool diversity" `Quick test_zygote_pool_diversity;
          Alcotest.test_case "draws verify" `Quick test_zygote_draw_verifies;
          Alcotest.test_case "empty rejected" `Quick test_zygote_empty_rejected;
          Alcotest.test_case "draws repeat layouts" `Quick
            test_zygote_draws_repeat_layouts;
        ] );
    ]

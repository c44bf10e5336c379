(* The boot-plan cache's two contracts (DESIGN.md §4):

   - content addressing: a plan is reused iff the image bytes are
     content-identical — physically shared objects hit fast, equal
     copies hit via CRC, any content change (including injected
     corruption) misses and rebuilds;
   - observational invisibility: traces, verify stats, boot params and
     phase_stats are bit-identical with the cache on or off, for any
     jobs fan-out, and nothing a boot does mutates a plan or the disk. *)

open Imk_monitor
module PC = Plan_cache

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------- keying ---------- *)

let test_hit_on_same_object () =
  let env = Testkit.make_env () in
  let t = PC.create () in
  let b = env.Testkit.built.Imk_kernel.Image.vmlinux in
  let p1 = PC.elf_plan t ~path:"k" b in
  let p2 = PC.elf_plan t ~path:"k" b in
  check bool "same plan object" true (p1 == p2);
  let hits, builds = PC.stats t in
  check int "one hit" 1 hits;
  check int "one build" 1 builds

let test_hit_on_equal_copy () =
  (* a workspace clone rebuilds byte-identical images as fresh objects;
     the CRC fallback must still hit *)
  let env = Testkit.make_env () in
  let t = PC.create () in
  let b = env.Testkit.built.Imk_kernel.Image.vmlinux in
  let p1 = PC.elf_plan t ~path:"k" b in
  let p2 = PC.elf_plan t ~path:"k" (Bytes.copy b) in
  check bool "copy hits" true (p1 == p2);
  let hits, builds = PC.stats t in
  check int "one hit" 1 hits;
  check int "one build" 1 builds

let test_miss_on_content_change () =
  (* same path, different kernel content: must rebuild, never alias *)
  let a = Testkit.make_env ~seed:9L () in
  let b = Testkit.make_env ~seed:10L () in
  let t = PC.create () in
  let pa = PC.elf_plan t ~path:"k" a.Testkit.built.Imk_kernel.Image.vmlinux in
  let pb = PC.elf_plan t ~path:"k" b.Testkit.built.Imk_kernel.Image.vmlinux in
  check bool "distinct plans" true (pa != pb);
  let _, builds = PC.stats t in
  check int "two builds" 2 builds;
  (* and the path now maps to b's content: a's bytes miss again *)
  let pa2 = PC.elf_plan t ~path:"k" a.Testkit.built.Imk_kernel.Image.vmlinux in
  check bool "a rebuilt after replacement" true (pa2 != pa)

let test_failed_build_not_cached () =
  let t = PC.create () in
  let bad = Bytes.make 64 '\000' in
  (try ignore (PC.elf_plan t ~path:"k" bad) ; Alcotest.fail "parsed garbage"
   with Imk_elf.Parser.Malformed _ -> ());
  let hits, builds = PC.stats t in
  check int "no hits" 0 hits;
  check int "no builds cached" 0 builds;
  (* same bytes fail again — typed, not served stale *)
  (try ignore (PC.elf_plan t ~path:"k" bad) ; Alcotest.fail "parsed garbage"
   with Imk_elf.Parser.Malformed _ -> ())

let test_bz_and_relocs_keying () =
  let env = Testkit.make_env () in
  let t = PC.create () in
  let bz_name =
    Testkit.add_bzimage env ~codec:"lz4" ~variant:Imk_kernel.Bzimage.Standard
  in
  let bz_bytes = Imk_storage.Disk.find env.Testkit.disk bz_name in
  let p1 = PC.bz_plan t ~path:bz_name bz_bytes in
  let p2 = PC.bz_plan t ~path:bz_name (Bytes.copy bz_bytes) in
  check bool "bz plan shared" true (p1 == p2);
  let rb = env.Testkit.built.Imk_kernel.Image.relocs_bytes in
  let r1 = PC.relocs t ~path:"k.relocs" rb in
  let r2 = PC.relocs t ~path:"k.relocs" (Bytes.copy rb) in
  check bool "relocs table shared" true (r1 == r2)

(* ---------- observational invisibility ---------- *)

(* comparisons need a warm page cache on both sides: a cold-vs-warm read
   difference is real (and charged) but has nothing to do with plans *)
let warm (env : Testkit.env) =
  List.iter
    (fun n -> Imk_storage.Page_cache.warm env.Testkit.cache n)
    (Imk_storage.Disk.names env.Testkit.disk)

let same_boot (tr_a, (ra : Vmm.boot_result)) (tr_b, (rb : Vmm.boot_result)) =
  Imk_vclock.Trace.spans tr_a = Imk_vclock.Trace.spans tr_b
  && ra.Vmm.stats = rb.Vmm.stats
  && ra.Vmm.params = rb.Vmm.params

let test_cached_uncached_identical_direct () =
  let env = Testkit.make_env ~variant:Imk_kernel.Config.Fgkaslr () in
  warm env;
  let t = PC.create () in
  List.iter
    (fun rando ->
      List.iter
        (fun seed ->
          let cached = Testkit.boot ~rando ~plans:t ~seed env in
          let plain = Testkit.boot ~rando ~seed env in
          check bool "trace+stats+params identical" true
            (same_boot cached plain))
        [ 1L; 2L; 77L ])
    [ Vm_config.Rando_kaslr; Vm_config.Rando_fgkaslr ];
  let hits, _ = PC.stats t in
  check bool "later boots hit" true (hits > 0)

let test_cached_uncached_identical_bz () =
  let env = Testkit.make_env () in
  let t = PC.create () in
  let bz_name =
    Testkit.add_bzimage env ~codec:"lz4" ~variant:Imk_kernel.Bzimage.Standard
  in
  warm env;
  List.iter
    (fun seed ->
      let boot ?plans () =
        Testkit.boot ?plans ~flavor:Vm_config.In_monitor_fgkaslr
          ~loader:Vm_config.Loader_stripped ~kernel_path:bz_name
          ~relocs:None ~seed env
      in
      let cached = boot ~plans:t () in
      let plain = boot () in
      check bool "bz boot identical" true (same_boot cached plain))
    [ 5L; 6L ]

let qcheck_cached_matches_uncached =
  let env = Testkit.make_env ~variant:Imk_kernel.Config.Fgkaslr () in
  warm env;
  let t = PC.create () in
  QCheck.Test.make ~name:"plan cache invisible for any seed" ~count:25
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, fg) ->
      let seed = Int64.of_int seed in
      let rando =
        if fg then Vm_config.Rando_fgkaslr else Vm_config.Rando_kaslr
      in
      same_boot
        (Testkit.boot ~rando ~plans:t ~seed env)
        (Testkit.boot ~rando ~seed env))

let small_ws ?plan_cache () =
  Imk_harness.Workspace.create ~scale:4 ~functions_override:50 ?plan_cache ()

let fig9_cell ws ~jobs =
  let module W = Imk_harness.Workspace in
  let module C = Imk_kernel.Config in
  let vm =
    Vm_config.make ~rando:Vm_config.Rando_kaslr
      ~relocs_path:(Some (W.relocs_path ws C.Aws C.Kaslr))
      ~kernel_path:(W.vmlinux_path ws C.Aws C.Kaslr)
      ~kernel_config:(W.config ws C.Aws C.Kaslr)
      ~mem_bytes:(64 * 1024 * 1024) ()
  in
  Imk_harness.Boot_runner.boot_many ~jobs ?plans:(W.plans ws) ~runs:6
    ~cache:(W.cache ws) vm

let test_boot_many_invariant_cache_and_jobs () =
  (* phase_stats must be bit-identical across {cache on, cache off} x
     {jobs 1, jobs 4} — the tentpole's acceptance matrix in miniature *)
  let base = fig9_cell (small_ws ~plan_cache:false ()) ~jobs:1 in
  List.iter
    (fun (label, stats) ->
      check bool label true (stats = base))
    [
      ("cache off, jobs 4", fig9_cell (small_ws ~plan_cache:false ()) ~jobs:4);
      ("cache on, jobs 1", fig9_cell (small_ws ()) ~jobs:1);
      ("cache on, jobs 4", fig9_cell (small_ws ()) ~jobs:4);
    ]

(* ---------- fault transparency ---------- *)

let test_corruption_never_sees_stale_plan () =
  let env = Testkit.make_env () in
  let t = PC.create () in
  let path = Testkit.vmlinux_path env in
  let pristine = Imk_storage.Disk.find env.Testkit.disk path in
  let _, r1 = Testkit.boot ~plans:t ~seed:3L env in
  (* corrupt the image in place (fresh bytes, ELF magic destroyed): the
     warm cache must not serve the pristine plan *)
  let corrupt = Bytes.copy pristine in
  Bytes.set corrupt 0 '\xff';
  Imk_storage.Disk.add env.Testkit.disk ~name:path corrupt;
  (match Testkit.boot ~plans:t ~seed:4L env with
  | _ -> Alcotest.fail "booted a corrupt image via a stale plan"
  | exception e ->
      check bool "typed failure" true
        (Imk_fault.Failure.classify e <> None));
  (* restore pristine content as a *fresh copy*: CRC path must hit and
     boot verify-green again *)
  Imk_storage.Disk.add env.Testkit.disk ~name:path (Bytes.copy pristine);
  let _, r2 = Testkit.boot ~plans:t ~seed:3L env in
  check bool "restored boot matches original" true
    (r1.Vmm.stats = r2.Vmm.stats)

let test_supervised_campaign_with_shared_plans () =
  (* one plan cache across a whole supervised campaign with armed
     faults: no silent successes, and clean runs still verify green *)
  let module S = Imk_harness.Boot_supervisor in
  let module I = Imk_fault.Inject in
  let env = Testkit.make_env () in
  let t = PC.create () in
  let pristine =
    List.map
      (fun n -> (n, Imk_storage.Disk.find env.Testkit.disk n))
      [ Testkit.vmlinux_path env; Testkit.relocs_path env ]
  in
  let vm =
    Vm_config.make ~rando:Vm_config.Rando_kaslr
      ~relocs_path:(Some (Testkit.relocs_path env))
      ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg
      ~mem_bytes:(64 * 1024 * 1024) ~seed:0L ()
  in
  let run kind ~seed =
    let disk = Imk_storage.Disk.create () in
    List.iter (fun (n, b) -> Imk_storage.Disk.add disk ~name:n b) pristine;
    let inject =
      match kind with
      | None -> None
      | Some k ->
          (I.arm k ~seed ~disk ~kernel_path:(Testkit.vmlinux_path env)
             ~relocs_path:(Testkit.relocs_path env) ())
            .I.inject
    in
    let ctx = { S.cache = Imk_storage.Page_cache.create disk; inject;
                plans = Some t } in
    S.supervise ~seed:(Int64.of_int seed) ~ctx vm
  in
  (* interleave clean and corrupted runs against the same plan cache *)
  for seed = 1 to 3 do
    let clean = run None ~seed in
    (match clean.S.outcome with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "clean run failed: %s"
                   (Imk_fault.Failure.describe f));
    List.iter
      (fun kind ->
        let r = run (Some kind) ~seed in
        match r.S.outcome with
        | Error _ -> ()
        | Ok _ ->
            check bool "armed run has recovery events" true (r.S.events <> []))
      [ I.Flip_image_magic; I.Truncate_image; I.Flip_relocs_magic ]
  done

(* the decoded bzImage payload lives in the plan: warm it with pristine
   boots, then corrupt the image. A corrupted image is new content, so
   it gets a plan of its own (or none) and must fail typed on every
   boot — a failed decode stores nothing to serve the next one. The
   pristine image's memo must come back intact: restoring the image
   hits a decoded payload again, and the memo's bytes still match the
   frame's CRC after many boots read them *)
let test_payload_memo_content_addressed () =
  let module I = Imk_fault.Inject in
  let module Bz = Imk_kernel.Bzimage in
  let env = Testkit.make_env () in
  let t = PC.create () in
  let disk = env.Testkit.disk in
  List.iter
    (fun codec ->
      let path = Testkit.add_bzimage env ~codec ~variant:Bz.Standard in
      let pristine = Imk_storage.Disk.find disk path in
      warm env;
      let boot seed =
        Testkit.boot ~plans:t ~flavor:Vm_config.In_monitor_fgkaslr
          ~loader:Vm_config.Loader_stripped ~kernel_path:path ~relocs:None
          ~seed env
      in
      let stats seed = (snd (boot seed)).Vmm.stats in
      let plan () = PC.bz_plan t ~path (Imk_storage.Disk.find disk path) in
      let memo () = Bz.unpacked (plan ()).PC.bz in
      let expected = stats 5L in
      List.iter
        (fun kind ->
          let label = codec ^ "/" ^ I.name kind in
          let before = plan () in
          let u_before = memo () in
          check bool (label ^ " warm memo") true (u_before <> None);
          ignore (I.arm kind ~seed:1 ~disk ~kernel_path:path ());
          for _ = 1 to 2 do
            match boot 5L with
            | _ -> Alcotest.failf "%s: booted a corrupt image" label
            | exception e ->
                check bool (label ^ " fails typed") true
                  (Imk_fault.Failure.classify e <> None)
          done;
          (* the corrupted content's own plan, when its header decodes,
             holds no payload *)
          (match memo () with
          | m -> check bool (label ^ " nothing stored") true (m = None)
          | exception Bz.Malformed _ -> ());
          Imk_storage.Disk.add disk ~name:path (Bytes.copy pristine);
          (* a truncated header never got a plan, so the pristine plan
             and its very memo answer the restored image; a CRC flip
             replaced the plan, and the restored image decodes afresh *)
          if kind = I.Truncate_bzimage then
            check bool (label ^ " pristine memo survives") true
              (plan () == before && memo () == u_before);
          check bool (label ^ " restored boot matches") true
            (stats 5L = expected);
          check bool (label ^ " restored memo") true (memo () <> None);
          check bool (label ^ " memo hit matches") true (stats 5L = expected))
        [ I.Flip_bz_payload_crc; I.Truncate_bzimage ];
      for seed = 1 to 6 do
        ignore (boot (Int64.of_int seed))
      done;
      let bz = (plan ()).PC.bz in
      match Bz.unpacked bz with
      | None -> Alcotest.failf "%s: no decoded payload after warm boots" codec
      | Some u ->
          check int (codec ^ " memo CRC equals the frame's")
            (Imk_util.Byteio.get_u32 bz.Bz.payload 16)
            (Imk_util.Crc.crc32 u.Bz.image 0 (Bytes.length u.Bz.image));
          check bool (codec ^ " relocs are the image's tail") true
            (Bytes.equal u.Bz.relocs
               (Bytes.sub u.Bz.image bz.Bz.vmlinux_len bz.Bz.relocs_len)))
    [ "gzip"; "lz4" ]

(* a decoded snapshot lives in the plan cache like a boot plan: warm
   restores of one blob hit it and clone its chunk image. A bit-flipped
   or truncated blob is new content: it fails typed on every restore
   (the supervisor falls back to a cold boot) and stores nothing, so the
   pristine blob, back on disk as a fresh copy, hits the same decoded
   snapshot again *)
let test_snapshot_memo_content_addressed () =
  let module S = Imk_harness.Boot_supervisor in
  let env = Testkit.make_env () in
  let t = PC.create () in
  let path = "base.snapshot" in
  let vm =
    Vm_config.make ~rando:Vm_config.Rando_kaslr
      ~relocs_path:(Some (Testkit.relocs_path env))
      ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg
      ~mem_bytes:(64 * 1024 * 1024) ~seed:0L ()
  in
  let pristine = Snapshot.serialize (Snapshot.capture (snd (Testkit.boot env ~seed:404L))) in
  let disk = Testkit.pristine_disk env in
  let restore blob ~seed =
    Imk_storage.Disk.add disk ~name:path blob;
    let ctx = S.plain_ctx ~plans:t (Imk_storage.Page_cache.create disk) in
    S.supervise_snapshot ~seed ~ctx ~snapshot_path:path ~working_set_pages:64 vm
  in
  let imaged blob =
    Snapshot.image_built (Snapshot.load_cached (Some t) ~path ~config:vm blob)
  in
  let clean label (r : S.report) =
    check bool (label ^ ": restored, no events") true
      (Result.is_ok r.S.outcome && r.S.events = [] && r.S.attempts = 1)
  in
  (* the kernel's own plans are built by a cold boot first, so the
     build count below moves only with snapshots *)
  ignore (S.supervise ~seed:1L ~ctx:(S.plain_ctx ~plans:t (Imk_storage.Page_cache.create disk)) vm);
  clean "first restore" (restore pristine ~seed:1L);
  check bool "the cached snapshot holds its image" true (imaged pristine);
  let hits0, builds0 = PC.stats t in
  let expected = restore pristine ~seed:2L in
  clean "warm restore" expected;
  let hits1, builds1 = PC.stats t in
  check int "warm restore hits" (hits0 + 1) hits1;
  check int "warm restore builds nothing" builds0 builds1;
  List.iter
    (fun (label, corrupt) ->
      let _, builds = PC.stats t in
      for seed = 3 to 4 do
        let r = restore corrupt ~seed:(Int64.of_int seed) in
        (match r.S.events with
        | Imk_fault.Failure.Fell_back_to_cold_boot
            (Imk_fault.Failure.Decode_error _)
          :: _ ->
            ()
        | _ -> Alcotest.failf "%s: restored without a typed failure" label);
        match Snapshot.load_cached (Some t) ~path ~config:vm corrupt with
        | _ -> Alcotest.failf "%s: a corrupt blob loaded" label
        | exception Snapshot.Corrupt _ -> ()
      done;
      check int (label ^ ": nothing stored") builds (snd (PC.stats t));
      let copy = Bytes.copy pristine in
      let r = restore copy ~seed:2L in
      clean (label ^ ": pristine again") r;
      check bool (label ^ ": pristine hits the image") true (imaged copy);
      check int (label ^ ": pristine builds nothing") builds (snd (PC.stats t));
      check bool (label ^ ": same report") true (r = expected))
    [
      ("bit flip", Imk_fault.Inject.flip_one_bit ~seed:17 (Bytes.copy pristine));
      ("truncation", Testkit.truncated pristine);
    ]

(* ---------- immutability and disk integrity ---------- *)

let crc b = Imk_util.Crc.crc32 b 0 (Bytes.length b)

let test_plans_immutable_across_boots () =
  let env = Testkit.make_env ~variant:Imk_kernel.Config.Fgkaslr () in
  let t = PC.create () in
  let b = env.Testkit.built.Imk_kernel.Image.vmlinux in
  let plan = PC.elf_plan t ~path:(Testkit.vmlinux_path env) b in
  let fingerprint () =
    List.map
      (fun (s : Imk_elf.Types.section) -> (s.Imk_elf.Types.name, crc s.Imk_elf.Types.data))
      plan.PC.alloc
  in
  let before = fingerprint () in
  List.iter
    (fun seed ->
      ignore (Testkit.boot ~rando:Vm_config.Rando_fgkaslr ~plans:t ~seed env))
    [ 1L; 2L; 3L ];
  check bool "plan section bytes untouched" true (before = fingerprint ())

let test_disk_unchanged_by_cached_boots () =
  (* satellite guard for the Page_cache/Disk aliasing hazard: boots read
     images through shared backing bytes; nothing on the boot path may
     write them. CRC every disk object around a fig9-style cell. *)
  let ws = small_ws () in
  let module W = Imk_harness.Workspace in
  let module C = Imk_kernel.Config in
  ignore (W.bzimage_path ws C.Aws C.Kaslr ~codec:"lz4" ~bz:Imk_kernel.Bzimage.Standard);
  let manifest () =
    List.map
      (fun n -> (n, crc (Imk_storage.Disk.find (W.disk ws) n)))
      (List.sort String.compare (Imk_storage.Disk.names (W.disk ws)))
  in
  let before = manifest () in
  ignore (fig9_cell ws ~jobs:2);
  check bool "disk contents unchanged" true (before = manifest ())

(* ---------- the per-image FGKASLR section table ---------- *)

(* a copy of [env]'s kernel with one more function section: 8 bytes of
   the first function's header, linked 8 bytes into it. Placed without a
   shuffle, it writes the bytes already there *)
let overlapping_vmlinux env =
  let open Imk_elf.Types in
  let elf = Imk_elf.Parser.parse env.Testkit.built.Imk_kernel.Image.vmlinux in
  let s =
    List.find is_function_section (Array.to_list elf.sections)
  in
  let dup =
    { s with
      name = ".text.overlap";
      addr = s.addr + 8;
      size = 8;
      data = Bytes.sub s.data 8 8;
      offset = Imk_elf.Layout.align_up (Imk_elf.Layout.file_end elf.sections) 16 }
  in
  Imk_elf.Writer.write { elf with sections = Array.append elf.sections [| dup |] }

(* a boot of the overlapping kernel: its result, or the exception it
   raised, and the virtual time charged until then *)
let overlap_boot ?plans rando =
  let env = Testkit.make_env ~functions:40 ~variant:Imk_kernel.Config.Fgkaslr () in
  Imk_storage.Disk.add env.Testkit.disk ~name:"overlap.vmlinux"
    (overlapping_vmlinux env);
  let vm =
    Vm_config.make ~rando ~relocs_path:(Some (Testkit.relocs_path env))
      ~mem_bytes:(64 * 1024 * 1024) ~kernel_path:"overlap.vmlinux"
      ~kernel_config:env.Testkit.cfg ~seed:42L ()
  in
  let trace, ch = Imk_vclock.Charge.fresh () in
  let outcome =
    match Vmm.boot ?plans ch env.Testkit.cache vm with
    | r -> Ok r.Vmm.stats.Imk_guest.Runtime.functions_visited
    | exception Invalid_argument m -> Error m
  in
  (outcome, Imk_vclock.Trace.total trace)

(* The plan validates the function sections once per image and keeps
   the verdict: an FGKASLR boot of a kernel whose sections overlap
   fails where it failed when each boot built its own plan — the same
   exception after the same virtual time, cached or not — and a KASLR
   boot of it, which never shuffles, boots. The figures are the ones
   the boot path gave before the table moved into the plan. *)
let test_overlapping_sections () =
  List.iter
    (fun plans ->
      check bool "fgkaslr fails at the same point" true
        (overlap_boot ?plans Vm_config.Rando_fgkaslr
        = ( Error "Fgkaslr.make_plan: overlapping or unsorted sections",
            7_998_728 ));
      check bool "kaslr boots" true
        (overlap_boot ?plans Vm_config.Rando_kaslr = (Ok 40, 54_306_109)))
    [ Some (PC.create ()); None ]

let () =
  Alcotest.run "imk_plan_cache"
    [
      ( "keying",
        [
          Alcotest.test_case "same object hits" `Quick test_hit_on_same_object;
          Alcotest.test_case "equal copy hits via crc" `Quick
            test_hit_on_equal_copy;
          Alcotest.test_case "content change misses" `Quick
            test_miss_on_content_change;
          Alcotest.test_case "failed build not cached" `Quick
            test_failed_build_not_cached;
          Alcotest.test_case "bz + relocs keying" `Quick
            test_bz_and_relocs_keying;
          Alcotest.test_case "overlapping sections" `Quick
            test_overlapping_sections;
        ] );
      ( "invisibility",
        [
          Alcotest.test_case "direct boots identical" `Quick
            test_cached_uncached_identical_direct;
          Alcotest.test_case "bz boots identical" `Quick
            test_cached_uncached_identical_bz;
          Testkit.to_alcotest qcheck_cached_matches_uncached;
          Alcotest.test_case "boot_many invariant (cache x jobs)" `Quick
            test_boot_many_invariant_cache_and_jobs;
        ] );
      ( "fault transparency",
        [
          Alcotest.test_case "corruption never sees stale plan" `Quick
            test_corruption_never_sees_stale_plan;
          Alcotest.test_case "supervised campaign, shared plans" `Quick
            test_supervised_campaign_with_shared_plans;
          Alcotest.test_case "decoded payload content-addressed" `Quick
            test_payload_memo_content_addressed;
          Alcotest.test_case "decoded snapshot content-addressed" `Quick
            test_snapshot_memo_content_addressed;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "plans immutable across boots" `Quick
            test_plans_immutable_across_boots;
          Alcotest.test_case "disk unchanged by cached boots" `Quick
            test_disk_unchanged_by_cached_boots;
        ] );
    ]

(* Tests for Imk_randomize: offset selection bounds/alignment, relocation
   application for all three kinds (including error paths), FGKASLR plans,
   displacement mapping and table fixups. *)

open Imk_memory
open Imk_randomize

let check = Alcotest.check
let int = Alcotest.int

let rng () = Imk_entropy.Prng.create ~seed:5L

let test_choose_virtual_bounds () =
  let r = rng () in
  for _ = 1 to 300 do
    let v = Kaslr.choose_virtual r ~image_memsz:(4 * 1024 * 1024) in
    check Alcotest.bool "aligned" true (v mod Addr.kernel_align = 0);
    check Alcotest.bool "lower bound" true (v >= Addr.link_base);
    check Alcotest.bool "upper bound" true
      (v + (4 * 1024 * 1024) <= Addr.kmap_base + Addr.kaslr_max_offset)
  done

let test_choose_virtual_huge_image () =
  let r = rng () in
  (* image bigger than the window: falls back to the default base *)
  let v = Kaslr.choose_virtual r ~image_memsz:(2 * Addr.kaslr_max_offset) in
  check int "fallback" (Addr.kmap_base + Addr.default_phys_load) v

let test_choose_physical_bounds () =
  let r = rng () in
  for _ = 1 to 200 do
    let p =
      Kaslr.choose_physical r ~image_memsz:(8 * 1024 * 1024)
        ~mem_bytes:(256 * 1024 * 1024)
    in
    check Alcotest.bool "aligned" true (p mod Addr.kernel_align = 0);
    check Alcotest.bool "range" true
      (p >= Addr.default_phys_load && p + (8 * 1024 * 1024) <= 256 * 1024 * 1024)
  done

let test_choose_physical_small_memory () =
  let r = rng () in
  let p =
    Kaslr.choose_physical r ~image_memsz:(64 * 1024 * 1024)
      ~mem_bytes:(66 * 1024 * 1024)
  in
  check int "default when tight" Addr.default_phys_load p

let test_virtual_slots () =
  let slots = Kaslr.virtual_slots ~image_memsz:(16 * 1024 * 1024) in
  (* (1G - 16M - 16M) / 2M + 1 = 497 *)
  check int "497 slots" 497 slots;
  check int "degenerate" 1 (Kaslr.virtual_slots ~image_memsz:(2 * Addr.kaslr_max_offset))

(* relocation application on a hand-built memory image *)
let apply_one kind ~initial ~delta =
  let mem = Guest_mem.create ~size:4096 in
  let site_va = Addr.link_base + 0x100 in
  let pa = 0x100 in
  (match kind with
  | Imk_elf.Relocation.Abs64 -> Guest_mem.set_addr mem ~pa initial
  | Imk_elf.Relocation.Abs32 | Imk_elf.Relocation.Inv32 ->
      Guest_mem.set_u32 mem ~pa initial);
  let relocs =
    match kind with
    | Imk_elf.Relocation.Abs64 ->
        { Imk_elf.Relocation.abs64 = [| site_va |]; abs32 = [||]; inv32 = [||] }
    | Imk_elf.Relocation.Abs32 ->
        { Imk_elf.Relocation.abs64 = [||]; abs32 = [| site_va |]; inv32 = [||] }
    | Imk_elf.Relocation.Inv32 ->
        { Imk_elf.Relocation.abs64 = [||]; abs32 = [||]; inv32 = [| site_va |] }
  in
  Kaslr.apply ~mem ~relocs
    ~site_pa:(fun va -> va - Addr.link_base)
    ~new_va_of:(Kaslr.delta_new_va ~delta);
  match kind with
  | Imk_elf.Relocation.Abs64 -> Guest_mem.get_addr mem ~pa
  | Imk_elf.Relocation.Abs32 | Imk_elf.Relocation.Inv32 ->
      Guest_mem.get_u32 mem ~pa

let test_apply_abs64 () =
  let target = Addr.link_base + 0x4000 in
  let v = apply_one Imk_elf.Relocation.Abs64 ~initial:target ~delta:0x600000 in
  check int "offset added" (target + 0x600000) v

let test_apply_abs32 () =
  let target = Addr.link_base + 0x4000 in
  let v =
    apply_one Imk_elf.Relocation.Abs32 ~initial:(Addr.low32 target)
      ~delta:0x600000
  in
  check int "low32 offset added" (Addr.low32 (target + 0x600000)) v

let test_apply_inv32 () =
  let target = Addr.link_base + 0x4000 in
  let stored = Addr.low32 (Addr.inverse_base - target) in
  let v = apply_one Imk_elf.Relocation.Inv32 ~initial:stored ~delta:0x600000 in
  (* inverse relocation: the offset is subtracted *)
  check int "offset subtracted" (stored - 0x600000) v

let test_apply_rejects_garbage_site () =
  check Alcotest.bool "reloc error" true
    (try
       ignore (apply_one Imk_elf.Relocation.Abs32 ~initial:0x1234 ~delta:0x200000);
       false
     with Kaslr.Reloc_error _ -> true)

let test_apply_rejects_out_of_image_site () =
  let mem = Guest_mem.create ~size:4096 in
  let relocs =
    { Imk_elf.Relocation.abs64 = [| Addr.link_base + 0x100000 |]; abs32 = [||]; inv32 = [||] }
  in
  check Alcotest.bool "reloc error, not a fault" true
    (try
       Kaslr.apply ~mem ~relocs
         ~site_pa:(fun va -> va - Addr.link_base)
         ~new_va_of:(Kaslr.delta_new_va ~delta:0);
       false
     with Kaslr.Reloc_error _ -> true)

let test_apply_rejects_out_of_window_target () =
  check Alcotest.bool "reloc error" true
    (try
       ignore
         (apply_one Imk_elf.Relocation.Abs64 ~initial:0xdead ~delta:0x200000);
       false
     with Kaslr.Reloc_error _ -> true)

(* per-site reference for the batched production [Kaslr.apply]: the same
   transformation applied one site at a time through the checked
   Guest_mem accessors — the semantics the batch path promises to
   preserve bit for bit, including error messages *)
let reference_apply ~mem ~relocs ~site_pa ~new_va_of =
  let open Imk_elf.Relocation in
  let fail fmt = Printf.ksprintf (fun s -> raise (Kaslr.Reloc_error s)) fmt in
  let patch kind site_va =
    try
      let pa = site_pa site_va in
      match kind with
      | Abs64 ->
          let old_va =
            try Guest_mem.get_addr mem ~pa
            with Invalid_argument _ ->
              fail "abs64 site %#x holds a non-address value" site_va
          in
          Guest_mem.set_addr mem ~pa (new_va_of old_va)
      | Abs32 ->
          let low = Guest_mem.get_u32 mem ~pa in
          let old_va =
            try Addr.va_of_low32 low
            with Invalid_argument _ ->
              fail "abs32 site %#x holds non-kernel value %#x" site_va low
          in
          let nva = new_va_of old_va in
          if not (Addr.is_kernel_va nva) then
            fail "abs32 relocation at %#x overflows 32 bits" site_va;
          Guest_mem.set_u32 mem ~pa (Addr.low32 nva)
      | Inv32 ->
          let stored = Guest_mem.get_u32 mem ~pa in
          let old_va = Addr.inverse_base - stored in
          if not (Addr.is_kernel_va old_va) then
            fail "inv32 site %#x holds non-kernel value %#x" site_va stored;
          let nva = new_va_of old_va in
          let stored' = Addr.inverse_base - nva in
          if stored' < 0 || stored' > 0xffffffff then
            fail "inv32 relocation at %#x underflows" site_va;
          Guest_mem.set_u32 mem ~pa stored'
    with Guest_mem.Fault m ->
      fail "relocation site %#x outside the loaded image: %s" site_va m
  in
  Array.iter (patch Abs64) relocs.abs64;
  Array.iter (patch Abs32) relocs.abs32;
  Array.iter (patch Inv32) relocs.inv32

let qcheck_batched_apply_matches_reference =
  (* random site sets for all three kinds; [swap_pairs] picks a
     non-monotonic site_pa (adjacent slots pairwise swapped, the
     FGKASLR-displacement shape) that forces the batcher to break runs
     and sends some reads to stale/zero slots — outcome (success or
     error message) and every guest byte must match the reference *)
  QCheck.Test.make ~name:"kaslr: batched apply = per-site reference"
    ~count:200
    QCheck.(
      quad
        (list_of_size Gen.(0 -- 40) (int_bound 2047))
        (list_of_size Gen.(0 -- 40) (int_bound 2047))
        (int_range 1 200) bool)
    (fun (offs64, offs32, slots, swap_pairs) ->
      let delta = slots * Addr.kernel_align in
      let size = 64 * 1024 in
      let sites mult region offs =
        List.sort_uniq Stdlib.compare offs
        |> List.map (fun k -> region + (k * mult))
      in
      let o64 = sites 8 0 offs64 in
      let o32 = sites 4 (16 * 1024) offs32 in
      let oi32 = sites 4 (32 * 1024) offs32 in
      let target i = Addr.link_base + 0x10000 + (i * 64) in
      let mk () =
        let mem = Guest_mem.create ~size in
        List.iteri (fun i pa -> Guest_mem.set_addr mem ~pa (target i)) o64;
        List.iteri
          (fun i pa -> Guest_mem.set_u32 mem ~pa (Addr.low32 (target i)))
          o32;
        List.iteri
          (fun i pa ->
            Guest_mem.set_u32 mem ~pa
              (Addr.low32 (Addr.inverse_base - target i)))
          oi32;
        mem
      in
      let vas offs =
        Array.of_list (List.map (fun o -> Addr.link_base + o) offs)
      in
      let relocs =
        { Imk_elf.Relocation.abs64 = vas o64; abs32 = vas o32;
          inv32 = vas oi32 }
      in
      let site_pa =
        if swap_pairs then fun va -> (va - Addr.link_base) lxor 8
        else fun va -> va - Addr.link_base
      in
      let run apply_fn =
        let mem = mk () in
        let outcome =
          try
            apply_fn ~mem ~relocs ~site_pa
              ~new_va_of:(Kaslr.delta_new_va ~delta);
            None
          with Kaslr.Reloc_error m -> Some m
        in
        ( outcome,
          Bytes.to_string
            (Guest_mem.read_bytes mem ~pa:0 ~len:(Guest_mem.size mem)) )
      in
      run Kaslr.apply = run reference_apply)

let test_batched_fallback_matches_reference () =
  (* a site past the end of guest memory makes its whole run fail
     validation; the batcher must replay that run site by site so the
     good sites are still patched and the bad one reports the per-site
     message — byte- and message-identical to the reference *)
  let size = 4096 in
  let good = [ 0x100; 0x108; 0x200 ] in
  let oob = 0x100000 in
  let target = Addr.link_base + 0x4000 in
  let mk () =
    let mem = Guest_mem.create ~size in
    List.iter (fun pa -> Guest_mem.set_addr mem ~pa target) good;
    mem
  in
  let relocs =
    {
      Imk_elf.Relocation.abs64 =
        Array.of_list (List.map (fun o -> Addr.link_base + o) (good @ [ oob ]));
      abs32 = [||];
      inv32 = [||];
    }
  in
  let run apply_fn =
    let mem = mk () in
    let outcome =
      try
        apply_fn ~mem ~relocs
          ~site_pa:(fun va -> va - Addr.link_base)
          ~new_va_of:(Kaslr.delta_new_va ~delta:0x600000);
        None
      with Kaslr.Reloc_error m -> Some m
    in
    ( outcome,
      Bytes.to_string
        (Guest_mem.read_bytes mem ~pa:0 ~len:(Guest_mem.size mem)) )
  in
  let (out_b, bytes_b) = run Kaslr.apply in
  let (out_r, bytes_r) = run reference_apply in
  check Alcotest.(option string) "same error" out_r out_b;
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "error names the site" true
    (match out_b with
    | Some m -> contains m "outside the loaded image"
    | None -> false);
  check Alcotest.bool "same bytes" true (String.equal bytes_b bytes_r)

(* each reloc kind has sites on both sides of its own edge ([unit], then
   [2 * unit], [3 * unit]) and one site straddling it; everything must
   patch byte-identically to the reference. Returns a test on the batched
   guest: whether [\[lo, hi)] lies inside one of its dirty ranges. *)
let edge_case unit =
  let size = (3 * unit) + 65536 in
  let around e = List.map (fun d -> (e * unit) + d) in
  let o64 = around 1 [ -40; -16; -4; 8; 16 ] in
  let o32 = around 2 [ -12; -8; -2; 4; 8 ] in
  let oi32 = around 3 [ -12; -8; -1; 4; 32 ] in
  let target i = Addr.link_base + 0x10000 + (i * 64) in
  let mk () =
    let mem = Guest_mem.create ~size in
    List.iteri (fun i pa -> Guest_mem.set_addr mem ~pa (target i)) o64;
    List.iteri
      (fun i pa -> Guest_mem.set_u32 mem ~pa (Addr.low32 (target i)))
      o32;
    List.iteri
      (fun i pa ->
        Guest_mem.set_u32 mem ~pa (Addr.low32 (Addr.inverse_base - target i)))
      oi32;
    mem
  in
  let vas offs = Array.of_list (List.map (fun o -> Addr.link_base + o) offs) in
  let relocs =
    { Imk_elf.Relocation.abs64 = vas o64; abs32 = vas o32; inv32 = vas oi32 }
  in
  let run apply_fn =
    let mem = mk () in
    apply_fn ~mem ~relocs
      ~site_pa:(fun va -> va - Addr.link_base)
      ~new_va_of:(Kaslr.delta_new_va ~delta:(3 * Addr.kernel_align));
    mem
  in
  let whole mem = Guest_mem.read_bytes mem ~pa:0 ~len:size in
  let batched = run Kaslr.apply in
  check Alcotest.bool "sites moved" false
    (Bytes.equal (whole batched) (whole (mk ())));
  check Alcotest.bool "same bytes" true
    (Bytes.equal (whole batched) (whole (run reference_apply)));
  let dirty lo hi =
    Guest_mem.fold_dirty_ranges batched ~init:false ~f:(fun acc ~lo:l ~hi:h ->
        acc || (l <= lo && h >= hi))
  in
  dirty

let test_chunk_edge_matches_reference () =
  (* runs must end at a 2 MiB relocation-run edge: the site straddling
     it starts a run of its own, which its storage chunks split *)
  let e = Addr.kernel_align in
  let dirty = edge_case e in
  (* a validated run dirties the gap between its sites; per-site
     patching would leave [e-32, e-16) clean *)
  check Alcotest.bool "left run batched" true (dirty (e - 40) (e - 8));
  check Alcotest.bool "run ends at the 2 MiB edge" false (dirty (e - 16) (e - 4))

let test_storage_edge_matches_reference () =
  (* a 64 KiB storage-chunk edge inside a 2 MiB block does not end a
     run: the run spans it, and the site straddling it is patched through
     the checked accessors inside the run *)
  let e = Guest_mem.chunk_size in
  check Alcotest.bool "storage edges are not run edges" true
    (3 * e < Addr.kernel_align);
  let dirty = edge_case e in
  check Alcotest.bool "one run across the storage edge" true
    (dirty (e - 40) (e + 24))

(* [Kaslr.apply]'s allocation does not grow with the site count: the
   site addresses go to one per-domain buffer, grown on a first call,
   not to an array per kind (arrays of at most 256 words come from the
   minor heap, so a per-kind array would show here) *)
let test_apply_allocation () =
  Testkit.skip_unless_native ();
  let words per_kind =
    let sites base =
      Array.init per_kind (fun i -> Addr.link_base + base + (i * 8))
    in
    let relocs =
      { Imk_elf.Relocation.abs64 = sites 0; abs32 = sites 0x4000;
        inv32 = sites 0x8000 }
    in
    let target i = Addr.link_base + 0x10000 + (i * 64) in
    let mk () =
      let mem = Guest_mem.create ~size:0x10000 in
      Array.iteri
        (fun i va -> Guest_mem.set_addr mem ~pa:(va - Addr.link_base) (target i))
        relocs.abs64;
      Array.iteri
        (fun i va ->
          Guest_mem.set_u32 mem ~pa:(va - Addr.link_base) (Addr.low32 (target i)))
        relocs.abs32;
      Array.iteri
        (fun i va ->
          Guest_mem.set_u32 mem ~pa:(va - Addr.link_base)
            (Addr.low32 (Addr.inverse_base - target i)))
        relocs.inv32;
      mem
    in
    let site_pa va = va - Addr.link_base in
    let new_va_of = Kaslr.delta_new_va ~delta:Addr.kernel_align in
    let apply mem () = Kaslr.apply ~mem ~relocs ~site_pa ~new_va_of in
    apply (mk ()) ();
    let mem = mk () in
    Testkit.minor_words (apply mem)
  in
  let small = words 50 and large = words 250 in
  check (Alcotest.float 0.) "150 and 750 sites, same minor words" small large;
  check Alcotest.bool (Printf.sprintf "%.0f minor words <= 80" large) true
    (large <= 80.)

(* the run rule decides the dirty set: a run dirties the unwritten gap
   between its sites, here [0xb03f370, 0xb040000) inside the placed
   image, which a run ending at a 64 KiB storage edge would leave clean.
   Snapshot frames and scrub cost follow from these ranges. *)
let test_boot_dirty_set_pinned () =
  let ws = Imk_harness.Workspace.create ~functions_override:400 () in
  let vm =
    Imk_harness.Workspace.direct_vm ws Imk_kernel.Config.Aws
      Imk_kernel.Config.Kaslr ~rando:Imk_monitor.Vm_config.Rando_kaslr ()
  in
  let _, r =
    Imk_harness.Boot_runner.boot_once ~jitter:false ~seed:404L
      ~cache:(Imk_harness.Workspace.cache ws) vm
  in
  check
    Alcotest.(list (pair int int))
    "aws-kaslr direct boot, seed 404"
    [
      (0x7000, 0x7070);
      (0x20000, 0x20027);
      (0xb000000, 0xb044510);
      (0xb044540, 0xb045178);
      (0xb046000, 0xb10c000);
    ]
    (List.rev
       (Guest_mem.fold_dirty_ranges r.Imk_monitor.Vmm.mem ~init:[]
          ~f:(fun acc ~lo ~hi -> (lo, hi) :: acc)))

(* --- FGKASLR plans --- *)

let sections n =
  let va = ref Addr.link_base in
  Array.init n (fun i ->
      let size = 32 + (i mod 7 * 16) in
      let s = (!va, size) in
      va := !va + size;
      s)

let test_plan_is_permutation_layout () =
  let secs = sections 50 in
  let plan = Fgkaslr.make_plan (rng ()) ~sections:secs ~text_base:Addr.link_base in
  check Alcotest.bool "order is a permutation" true
    (Imk_entropy.Shuffle.is_permutation plan.Fgkaslr.order);
  (* new spans must not overlap and must stay 16-aligned *)
  let spans =
    Array.to_list (Array.init 50 (fun i -> (plan.Fgkaslr.new_va.(i), plan.Fgkaslr.size.(i))))
    |> List.sort compare
  in
  let rec no_overlap = function
    | (a, sa) :: ((b, _) :: _ as rest) ->
        check Alcotest.bool "no overlap" true (a + sa <= b);
        no_overlap rest
    | _ -> ()
  in
  no_overlap spans;
  Array.iter (fun va -> check int "16-aligned" 0 (va mod 16)) plan.Fgkaslr.new_va

let test_displace_inside_and_outside () =
  let secs = sections 20 in
  let plan = Fgkaslr.make_plan (rng ()) ~sections:secs ~text_base:Addr.link_base in
  Array.iteri
    (fun i (old_va, size) ->
      (* function start and interior both displaced by the same amount *)
      let d = plan.Fgkaslr.new_va.(i) - old_va in
      check int "start" (old_va + d) (Fgkaslr.displace plan old_va);
      check int "interior" (old_va + (size / 2) + d)
        (Fgkaslr.displace plan (old_va + (size / 2))))
    secs;
  (* addresses outside any section are untouched *)
  check int "below" (Addr.kmap_base) (Fgkaslr.displace plan Addr.kmap_base);
  let beyond = fst secs.(19) + snd secs.(19) + 100000 in
  check int "beyond" beyond (Fgkaslr.displace plan beyond)

let test_identity_plan () =
  let secs = sections 10 in
  let plan = Fgkaslr.identity_plan ~sections:secs ~text_base:Addr.link_base in
  Array.iteri
    (fun i (old_va, _) -> check int "unmoved" old_va plan.Fgkaslr.new_va.(i))
    secs

let test_plan_rejects_overlap () =
  let bad = [| (Addr.link_base, 64); (Addr.link_base + 32, 64) |] in
  check Alcotest.bool "rejects" true
    (try
       ignore (Fgkaslr.make_plan (rng ()) ~sections:bad ~text_base:Addr.link_base);
       false
     with Invalid_argument _ -> true)

let test_plan_of_pairs_roundtrip () =
  let secs = sections 15 in
  let plan = Fgkaslr.make_plan (rng ()) ~sections:secs ~text_base:Addr.link_base in
  let rebuilt = Fgkaslr.plan_of_pairs (Fgkaslr.displacement_pairs plan) in
  Array.iter
    (fun (old_va, _) ->
      check int "same displacement" (Fgkaslr.displace plan old_va)
        (Fgkaslr.displace rebuilt old_va))
    secs

let qcheck_displace_preserves_offsets =
  QCheck.Test.make
    ~name:"fgkaslr: displacement preserves intra-function offsets" ~count:100
    QCheck.(pair int64 (int_range 2 100))
    (fun (seed, n) ->
      let r = Imk_entropy.Prng.create ~seed in
      let secs = sections n in
      let plan = Fgkaslr.make_plan r ~sections:secs ~text_base:Addr.link_base in
      Array.for_all
        (fun (old_va, size) ->
          let d = Fgkaslr.displace plan old_va - old_va in
          Fgkaslr.displace plan (old_va + size - 1) = old_va + size - 1 + d)
        secs)

(* sections of random sizes with random gaps: adjacent about a third of
   the time, and now and then a gap of up to 4 MiB, which crowds the
   other sections into a few of the index's buckets. One in twenty is
   empty, so an empty section often shares its start with the next one:
   the tie {!Fgkaslr.displace} resolves to the last in link order *)
let random_sections r n =
  let va = ref Addr.link_base in
  Array.init n (fun _ ->
      let gap =
        match Imk_entropy.Prng.next_int r 100 with
        | 0 -> Imk_entropy.Prng.next_int r (1 lsl 22)
        | k when k < 33 -> 0
        | _ -> Imk_entropy.Prng.next_int r 5000
      in
      let size =
        if Imk_entropy.Prng.next_int r 20 = 0 then 0
        else 1 + Imk_entropy.Prng.next_int r 4096
      in
      let s = (!va + gap, size) in
      va := !va + gap + size;
      s)

(* each section's first byte, last byte and one past its end (a gap or
   the next section), each gap's middle, and VAs below the first section
   and above the last *)
let probes secs =
  let n = Array.length secs in
  let first = fst secs.(0) in
  let last_end = fst secs.(n - 1) + snd secs.(n - 1) in
  let own =
    Array.to_list secs
    |> List.concat_map (fun (va, size) -> [ va; va + size - 1; va + size ])
  in
  let gaps =
    List.init (n - 1) (fun i ->
        let a = fst secs.(i) + snd secs.(i) in
        (a + fst secs.(i + 1)) / 2)
  in
  [ min_int; 0; first - 1; last_end + 1; last_end + 123_457; max_int ]
  @ own @ gaps

let qcheck_displace_matches_reference =
  QCheck.Test.make ~name:"fgkaslr: indexed displace = binary-search reference"
    ~count:150
    QCheck.(triple int64 (int_range 1 6000) (int_bound 2))
    (fun (seed, n, kind) ->
      let r = Imk_entropy.Prng.create ~seed in
      let secs = random_sections r n in
      let shuffled = Fgkaslr.make_plan r ~sections:secs ~text_base:Addr.link_base in
      let plan, pairs =
        match kind with
        | 0 -> (shuffled, Fgkaslr.displacement_pairs shuffled)
        | 1 ->
            let p = Fgkaslr.identity_plan ~sections:secs ~text_base:Addr.link_base in
            (p, Fgkaslr.displacement_pairs p)
        | _ ->
            let pairs = Fgkaslr.displacement_pairs shuffled in
            Imk_entropy.Shuffle.shuffle_in_place r pairs;
            (Fgkaslr.plan_of_pairs pairs, pairs)
      in
      let reference = Displace_ref.of_pairs pairs in
      Fgkaslr.displacement_pairs plan = pairs
      && List.for_all
           (fun va -> Fgkaslr.displace plan va = Displace_ref.displace reference va)
           (probes secs))

let test_displace_allocation () =
  Testkit.skip_unless_native ();
  let secs = random_sections (rng ()) 5600 in
  let plan = Fgkaslr.make_plan (rng ()) ~sections:secs ~text_base:Addr.link_base in
  let span = fst secs.(5599) - Addr.link_base in
  let lookups () =
    let acc = ref 0 in
    for i = 0 to 9_999 do
      acc := !acc lxor Fgkaslr.displace plan (Addr.link_base + (i * 7919 mod span))
    done;
    ignore (Sys.opaque_identity !acc)
  in
  check (Alcotest.float 0.) "10,000 lookups, 0 minor words" 0.
    (Testkit.minor_words lookups)

(* --- the cursor against displace --- *)

(* a plan over [secs] of one of the three shapes the reference property
   draws: shuffled, identity, or rebuilt from its own shuffled pairs *)
let plan_of_shape r secs shape =
  let shuffled = Fgkaslr.make_plan r ~sections:secs ~text_base:Addr.link_base in
  match shape with
  | 0 -> shuffled
  | 1 -> Fgkaslr.identity_plan ~sections:secs ~text_base:Addr.link_base
  | _ ->
      let pairs = Fgkaslr.displacement_pairs shuffled in
      Imk_entropy.Shuffle.shuffle_in_place r pairs;
      Fgkaslr.plan_of_pairs pairs

(* queries a relocation walk and worse would make: ascending runs over
   the probes, the same VA twice, descending runs, jumps back to the
   start of a run, and single random probes — min_int and max_int and
   VAs below the first section and above the last among them *)
let query_sequence r secs =
  let probes = Array.of_list (if Array.length secs = 0 then [ min_int; 0; max_int ] else probes secs) in
  let m = Array.length probes in
  let pick () = probes.(Imk_entropy.Prng.next_int r m) in
  let run () =
    let len = 1 + Imk_entropy.Prng.next_int r m in
    List.sort Int.compare (List.init len (fun _ -> pick ()))
  in
  List.concat
    (List.init 12 (fun _ ->
         match Imk_entropy.Prng.next_int r 4 with
         | 0 -> run ()
         | 1 -> List.concat_map (fun va -> [ va; va ]) (run ())
         | 2 -> List.rev (run ())
         | _ -> List.init 5 (fun _ -> pick ())))

let qcheck_cursor_matches_displace =
  QCheck.Test.make ~name:"fgkaslr: cursor = displace" ~count:150
    QCheck.(triple int64 (int_range 0 3000) (int_bound 2))
    (fun (seed, n, shape) ->
      let r = Imk_entropy.Prng.create ~seed in
      let secs = random_sections r n in
      let plan = plan_of_shape r secs shape in
      let m = Fgkaslr.mapper plan in
      List.for_all
        (fun va -> Fgkaslr.map m va = Fgkaslr.displace plan va)
        (query_sequence r secs))

let test_map_allocation () =
  Testkit.skip_unless_native ();
  let secs = random_sections (rng ()) 5600 in
  let plan = Fgkaslr.make_plan (rng ()) ~sections:secs ~text_base:Addr.link_base in
  let span = fst secs.(5599) - Addr.link_base in
  let m = Fgkaslr.mapper plan in
  (* an ascending walk, then a pass that jumps about *)
  let lookups () =
    let acc = ref 0 in
    for i = 0 to 9_999 do
      acc := !acc lxor Fgkaslr.map m (Addr.link_base + (i * (span / 10_000)))
    done;
    for i = 0 to 9_999 do
      acc := !acc lxor Fgkaslr.map m (Addr.link_base + (i * 7919 mod span))
    done;
    ignore (Sys.opaque_identity !acc)
  in
  check (Alcotest.float 0.) "20,000 queries, 0 minor words" 0.
    (Testkit.minor_words lookups)

(* --- the section table --- *)

(* one table, many draws: each draw is the plan make_plan builds from the
   same sections and the same generator state *)
let test_table_draw_is_make_plan () =
  let secs = random_sections (rng ()) 300 in
  let t = Fgkaslr.table ~sections:secs in
  let r1 = Imk_entropy.Prng.create ~seed:11L in
  let r2 = Imk_entropy.Prng.create ~seed:11L in
  for _ = 1 to 3 do
    let a = Fgkaslr.draw r1 t ~text_base:Addr.link_base in
    let b = Fgkaslr.make_plan r2 ~sections:secs ~text_base:Addr.link_base in
    check Alcotest.bool "same plan" true
      (Fgkaslr.displacement_pairs a = Fgkaslr.displacement_pairs b
      && a.Fgkaslr.order = b.Fgkaslr.order)
  done

(* an overlapping table builds, and draw rejects it as make_plan does,
   before it draws anything *)
let test_table_rejects_overlap_on_draw () =
  let bad = [| (Addr.link_base, 64); (Addr.link_base + 32, 64) |] in
  let t = Fgkaslr.table ~sections:bad in
  let r = rng () in
  let raised f =
    match f () with
    | _ -> "no exception"
    | exception Invalid_argument m -> m
  in
  let expect =
    raised (fun () -> Fgkaslr.make_plan (rng ()) ~sections:bad ~text_base:Addr.link_base)
  in
  check Alcotest.string "same exception" expect
    (raised (fun () -> Fgkaslr.draw r t ~text_base:Addr.link_base));
  check int "nothing drawn" (Imk_entropy.Prng.next_int (rng ()) 1000)
    (Imk_entropy.Prng.next_int r 1000)

(* --- table fixups against the tuple-sorting reference --- *)

(* A guest holding one table of [count] entries at a random address:
   sometimes across the 64 KiB storage edge, sometimes running off the
   guest's end. Entry fields come from small pools so that entries tie
   on every field: VAs from a handful of section starts, interiors and
   ends (some never displaced), ids and offsets from 0..2. [fields k]
   writes entry [k] at [pa] (its VA is [va]). *)
let guest_size = 2 * Guest_mem.chunk_size

let table_guest r ~header ~entry ~count ~write_count ~fields =
  let mem = Guest_mem.create ~size:guest_size in
  let pa =
    match Imk_entropy.Prng.next_int r 4 with
    | 0 -> Guest_mem.chunk_size - 1 - Imk_entropy.Prng.next_int r 4000
    | 1 -> guest_size - 16 - Imk_entropy.Prng.next_int r 64
    | _ -> Imk_entropy.Prng.next_int r (guest_size - 16)
  in
  write_count mem ~pa;
  let fit = Int.max 0 ((guest_size - pa - header) / entry) in
  for k = 0 to Int.min count fit - 1 do
    fields mem ~k ~pa:(pa + header + (k * entry))
  done;
  (mem, pa)

let va_pool r secs =
  let n = Array.length secs in
  Array.init 6 (fun _ ->
      if n = 0 then Addr.link_base
      else
        let va, size = secs.(Imk_entropy.Prng.next_int r n) in
        match Imk_entropy.Prng.next_int r 4 with
        | 0 -> va
        | 1 -> va + (size / 2)
        | 2 -> va + size
        | _ -> va - 1)

type fixup_outcome = Written of string | Raised of string

let fixup_outcome mem f =
  match f mem with
  | () ->
      Written
        (Bytes.to_string (Guest_mem.read_bytes mem ~pa:0 ~len:guest_size))
  | exception e -> Raised (Printexc.to_string e)

(* the table's entry count: mostly what the entries fill, else zero,
   one, more than the guest holds, or implausible *)
let draw_count r =
  match Imk_entropy.Prng.next_int r 8 with
  | 0 -> 0
  | 1 -> 1
  | 2 -> 50_000
  | 3 -> 10_000_001
  | _ -> 2 + Imk_entropy.Prng.next_int r 300

let qcheck_fixups_match_reference =
  QCheck.Test.make ~name:"fgkaslr: fixups = tuple-sorting reference" ~count:300
    QCheck.(triple int64 (int_range 0 400) (int_bound 2))
    (fun (seed, n, shape) ->
      let r = Imk_entropy.Prng.create ~seed in
      let secs = random_sections r n in
      let plan = plan_of_shape r secs shape in
      let pool = va_pool r secs in
      let pick a = a.(Imk_entropy.Prng.next_int r (Array.length a)) in
      let small () = Imk_entropy.Prng.next_int r 3 in
      let count = draw_count r in
      let entries = Int.min count 400 in
      (* each table's fields, drawn once and written into two guests *)
      let same name ~header ~entry ~count_at ~fields ~fixup ~reference =
        let values = Array.init entries (fun _ -> fields ()) in
        let seed' = Imk_entropy.Prng.next_int r 1_000_000 in
        let build () =
          let r = Imk_entropy.Prng.create ~seed:(Int64.of_int seed') in
          table_guest r ~header ~entry ~count
            ~write_count:(fun mem ~pa ->
              Guest_mem.set_u32 mem ~pa:(pa + count_at) count)
            ~fields:(fun mem ~k ~pa ->
              if k < entries then values.(k) mem ~pa)
        in
        let m1, pa = build () and m2, _ = build () in
        let got = fixup_outcome m1 (fun mem -> fixup mem ~pa)
        and want = fixup_outcome m2 (fun mem -> reference mem ~pa) in
        if got <> want then
          QCheck.Test.fail_reportf "%s differs (count %d, pa %#x)" name count pa;
        true
      in
      let table_va = Addr.link_base - 4096 in
      same "kallsyms" ~header:Imk_kernel.Image.kallsyms_header_bytes
        ~entry:Imk_kernel.Image.kallsyms_entry_bytes ~count_at:8
        ~fields:(fun () ->
          let off = pick pool - Addr.kmap_base and id = small () in
          fun mem ~pa ->
            Guest_mem.set_u32 mem ~pa off;
            Guest_mem.set_u32 mem ~pa:(pa + 4) id)
        ~fixup:(fun mem ~pa -> Fgkaslr.fixup_kallsyms mem ~pa plan)
        ~reference:(fun mem ~pa -> Fixup_ref.fixup_kallsyms mem ~pa plan)
      && same "extab" ~header:Imk_kernel.Image.extab_header_bytes
           ~entry:Imk_kernel.Image.extab_entry_bytes ~count_at:0
           ~fields:(fun () ->
             let fault = pick pool and handler = pick pool in
             let fault_fn = small () and handler_fn = small () in
             let fault_off = small () in
             fun mem ~pa ->
               (* entry VAs are relative to the table's VA, [pa] here *)
               let entry_va = table_va + pa in
               Guest_mem.set_u32 mem ~pa ((fault - entry_va) land 0xffffffff);
               Guest_mem.set_u32 mem ~pa:(pa + 4)
                 ((handler - (entry_va + 4)) land 0xffffffff);
               Guest_mem.set_u32 mem ~pa:(pa + 8) fault_fn;
               Guest_mem.set_u32 mem ~pa:(pa + 12) handler_fn;
               Guest_mem.set_u32 mem ~pa:(pa + 16) fault_off)
           ~fixup:(fun mem ~pa ->
             Fgkaslr.fixup_extab mem ~pa ~extab_va:(table_va + pa) plan)
           ~reference:(fun mem ~pa ->
             Fixup_ref.fixup_extab mem ~pa ~extab_va:(table_va + pa) plan)
      && same "orc" ~header:Imk_kernel.Image.orc_header_bytes
           ~entry:Imk_kernel.Image.orc_entry_bytes ~count_at:0
           ~fields:(fun () ->
             let ip = pick pool and id = small () in
             fun mem ~pa ->
               let entry_va = table_va + pa in
               Guest_mem.set_u32 mem ~pa ((ip - entry_va) land 0xffffffff);
               Guest_mem.set_u32 mem ~pa:(pa + 4) id)
           ~fixup:(fun mem ~pa ->
             Fgkaslr.fixup_orc mem ~pa ~orc_va:(table_va + pa) plan)
           ~reference:(fun mem ~pa ->
             Fixup_ref.fixup_orc mem ~pa ~orc_va:(table_va + pa) plan))

(* a damaged count near the start of a big guest: 9,999,999 extab
   entries (229 MiB) from 32 MiB into a 256 MiB guest run off its end.
   The probe starts at the entry that holds the end, so the fixup fails
   at once, with the fault reading the table entry by entry meets. The
   reference is run on the same table moved up by whole entries to start
   at that entry: the guest's end falls 2 bytes into its first field, so
   it faults at the same field before it allocates anything *)
let test_fixup_probe_bound () =
  let size = 256 * 1024 * 1024 in
  let header = Imk_kernel.Image.extab_header_bytes in
  let entry = Imk_kernel.Image.extab_entry_bytes in
  let count = 9_999_999 in
  let pa = (32 * 1024 * 1024) + 22 in
  check Alcotest.bool "runs off the guest" true (pa + header + (count * entry) > size);
  let plan = Fgkaslr.identity_plan ~sections:[||] ~text_base:Addr.link_base in
  let outcome pa fixup =
    let mem = Guest_mem.create ~size in
    Guest_mem.set_u32 mem ~pa count;
    fixup_outcome mem (fun mem -> fixup mem ~pa ~extab_va:(Addr.link_base + pa) plan)
  in
  let holding_end = pa + ((size - pa - header) / entry * entry) in
  check Alcotest.int "2 bytes of its first field in the guest" 2
    (size - (holding_end + header));
  let got = outcome pa Fgkaslr.fixup_extab in
  check Alcotest.bool "faults" true
    (match got with Raised m -> String.length m > 0 | Written _ -> false);
  check Alcotest.bool "= the reference's exception" true
    (got = outcome holding_end Fixup_ref.fixup_extab)

(* the sort the fixups share allocates nothing, and sorts *)
let test_sort_rows_allocation () =
  Testkit.skip_unless_native ();
  let n = 3000 and width = 5 in
  let rows = Array.init (n * width) (fun i -> i * 7919 mod 97 mod 4) in
  check (Alcotest.float 0.) "0 minor words" 0.
    (Testkit.minor_words (fun () -> Fgkaslr.sort_rows rows ~width n));
  let row k = Array.sub rows (k * width) width in
  for k = 1 to n - 1 do
    check Alcotest.bool "ascending" true (compare (row (k - 1)) (row k) <= 0)
  done

(* --- the setup-data blob --- *)

(* the encoder as it was before it read the plan's arrays: one
   [(old_va, new_va, size)] triple per entry. The reference for
   [setup_data_of_plan] and today's [setup_data_encode] *)
let setup_data_encode_ref pairs =
  let n = Array.length pairs in
  let out = Bytes.make (8 + (n * 24)) '\000' in
  Imk_util.Byteio.set_u32 out 0 0x53455455;
  Imk_util.Byteio.set_u32 out 4 n;
  Array.iteri
    (fun k (old_va, new_va, size) ->
      let off = 8 + (k * 24) in
      Imk_util.Byteio.set_addr out off old_va;
      Imk_util.Byteio.set_addr out (off + 8) new_va;
      Imk_util.Byteio.set_u32 out (off + 16) size;
      Imk_util.Byteio.set_u32 out (off + 20) 0)
    pairs;
  out

let qcheck_plan_blob_matches_pairs_blob =
  QCheck.Test.make ~name:"boot_params: plan blob = pairs blob" ~count:100
    QCheck.(triple int64 (int_range 0 2000) (int_bound 2))
    (fun (seed, n, shape) ->
      let r = Imk_entropy.Prng.create ~seed in
      let p = plan_of_shape r (random_sections r n) shape in
      let want = setup_data_encode_ref (Fgkaslr.displacement_pairs p) in
      Bytes.equal (Imk_guest.Boot_params.setup_data_of_plan p) want
      && Bytes.equal
           (Imk_guest.Boot_params.setup_data_encode
              (Fgkaslr.displacement_pairs p))
           want)

let qcheck_apply_then_verify_consistency =
  (* applying with delta then with -delta returns the original bytes *)
  QCheck.Test.make ~name:"kaslr: apply delta then -delta = id" ~count:50
    QCheck.(int_range 1 200)
    (fun slots ->
      let delta = slots * Addr.kernel_align in
      let target = Addr.link_base + 0x4000 in
      let v1 = apply_one Imk_elf.Relocation.Abs64 ~initial:target ~delta in
      let mem = Guest_mem.create ~size:4096 in
      Guest_mem.set_addr mem ~pa:0x100 v1;
      let relocs =
        { Imk_elf.Relocation.abs64 = [| Addr.link_base + 0x100 |]; abs32 = [||]; inv32 = [||] }
      in
      Kaslr.apply ~mem ~relocs
        ~site_pa:(fun va -> va - Addr.link_base)
        ~new_va_of:(Kaslr.delta_new_va ~delta:(-delta));
      Guest_mem.get_addr mem ~pa:0x100 = target)

let () =
  Alcotest.run "imk_randomize"
    [
      ( "offset selection",
        [
          Alcotest.test_case "virtual bounds" `Quick test_choose_virtual_bounds;
          Alcotest.test_case "huge image fallback" `Quick
            test_choose_virtual_huge_image;
          Alcotest.test_case "physical bounds" `Quick test_choose_physical_bounds;
          Alcotest.test_case "small memory" `Quick
            test_choose_physical_small_memory;
          Alcotest.test_case "slot count" `Quick test_virtual_slots;
        ] );
      ( "relocation apply",
        [
          Alcotest.test_case "abs64" `Quick test_apply_abs64;
          Alcotest.test_case "abs32" `Quick test_apply_abs32;
          Alcotest.test_case "inv32" `Quick test_apply_inv32;
          Alcotest.test_case "garbage site" `Quick
            test_apply_rejects_garbage_site;
          Alcotest.test_case "out-of-image site" `Quick
            test_apply_rejects_out_of_image_site;
          Alcotest.test_case "bad target" `Quick
            test_apply_rejects_out_of_window_target;
          Alcotest.test_case "fallback = reference" `Quick
            test_batched_fallback_matches_reference;
          Alcotest.test_case "chunk edge = reference" `Quick
            test_chunk_edge_matches_reference;
          Alcotest.test_case "storage edge = reference" `Quick
            test_storage_edge_matches_reference;
          Alcotest.test_case "apply allocation" `Quick test_apply_allocation;
          Alcotest.test_case "boot dirty set pinned" `Quick
            test_boot_dirty_set_pinned;
          Testkit.to_alcotest qcheck_apply_then_verify_consistency;
          Testkit.to_alcotest qcheck_batched_apply_matches_reference;
        ] );
      ( "fgkaslr plans",
        [
          Alcotest.test_case "permutation layout" `Quick
            test_plan_is_permutation_layout;
          Alcotest.test_case "displace in/out" `Quick
            test_displace_inside_and_outside;
          Alcotest.test_case "identity plan" `Quick test_identity_plan;
          Alcotest.test_case "rejects overlap" `Quick test_plan_rejects_overlap;
          Alcotest.test_case "plan_of_pairs" `Quick test_plan_of_pairs_roundtrip;
          Testkit.to_alcotest qcheck_displace_preserves_offsets;
          Testkit.to_alcotest qcheck_displace_matches_reference;
          Alcotest.test_case "displace allocation" `Quick
            test_displace_allocation;
          Testkit.to_alcotest qcheck_cursor_matches_displace;
          Alcotest.test_case "cursor allocation" `Quick test_map_allocation;
          Alcotest.test_case "table draws = make_plan" `Quick
            test_table_draw_is_make_plan;
          Alcotest.test_case "table rejects overlap on draw" `Quick
            test_table_rejects_overlap_on_draw;
        ] );
      ( "fgkaslr fixups",
        [
          Testkit.to_alcotest qcheck_fixups_match_reference;
          Alcotest.test_case "sort allocation" `Quick test_sort_rows_allocation;
          Alcotest.test_case "probe from the guest's end" `Quick
            test_fixup_probe_bound;
        ] );
      ("setup data", [ Testkit.to_alcotest qcheck_plan_blob_matches_pairs_blob ]);
    ]

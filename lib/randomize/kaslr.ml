open Imk_memory

exception Reloc_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Reloc_error s)) fmt

let choose_physical rng ~image_memsz ~mem_bytes =
  let lo = Addr.default_phys_load in
  let hi = mem_bytes - image_memsz in
  if hi < lo then lo
  else Imk_entropy.Prng.next_aligned rng ~lo ~hi ~align:Addr.kernel_align

let virtual_bounds ~image_memsz =
  let lo = Addr.kmap_base + Addr.default_phys_load in
  let hi = Addr.kmap_base + Addr.kaslr_max_offset - image_memsz in
  (lo, hi)

let choose_virtual rng ~image_memsz =
  let lo, hi = virtual_bounds ~image_memsz in
  if hi < lo then lo
  else Imk_entropy.Prng.next_aligned rng ~lo ~hi ~align:Addr.kernel_align

let virtual_slots ~image_memsz =
  let lo, hi = virtual_bounds ~image_memsz in
  if hi < lo then 1
  else
    let first = Addr.align_up lo Addr.kernel_align in
    ((hi - first) / Addr.kernel_align) + 1

let delta_new_va ~delta va =
  if not (Addr.is_kernel_va va) then
    fail "relocation target %#x outside the kernel window" va;
  va + delta

(* Relocation application is batched: the site arrays arrive sorted by
   link VA, and [site_pa] is piecewise-affine (constant offset for
   KASLR, per-section offsets under FGKASLR), so consecutive sites map
   to monotone stretches of guest-physical addresses. [site_pa] is
   queried once per site, kind by kind in table order, into one
   per-domain buffer, and every later use of a site's address reads that
   answer, so a caller may pass a stateful mapper that is cheap on
   ascending queries ([Fgkaslr.map]). Each stretch — a relocation run —
   pays one Guest_mem bounds check + dirty-tracker update via
   [with_validated_range] and then patches on the stores of the 64 KiB
   storage chunks holding it — instead of a checked read, a checked
   write and a tracker walk per site. A run ends at a 2 MiB edge
   ([Addr.kernel_align]) or at [run_span_max], whichever is first;
   storage-chunk edges inside a run only split its store lookups. The
   run rule, not the storage chunk, decides what a run dirties.

   [patch_in] is the one transformation of a site's bytes. A site no store
   holds whole — one straddling a storage edge, or any site of a run
   that fails validation (a site outside the loaded image: the
   corrupt-relocs case) — is patched on a copy: read with
   [blit_to_bytes], patched, and written back with [write_sub], which
   dirties exactly the site's bytes, as a checked write of its width
   does. A site outside the guest faults through the checked read of
   its width, so every error message, guest byte and dirty range is
   that of patching site by site through the checked accessors. *)

let run_span_max = 1 lsl 20
(* caps the validated span, and with it the per-run dirty
   over-approximation, when sorted sites straddle a sparse region. A run
   dirties every byte between its first and last site, so it can dirty an
   unwritten gap inside the placed image (the loader leaves holes between
   segments): the run rule is part of the dirty set, and so of snapshot
   frames and scrub cost *)

(* each kind's site addresses, one slot per site; grown to the longest
   kind seen on this domain, so a warm boot allocates none *)
let pas_buffer = Domain.DLS.new_key (fun () -> ref [||])

let site_pas n =
  let r = Domain.DLS.get pas_buffer in
  if Array.length !r < n then r := Array.make (Int.max n (2 * Array.length !r)) 0;
  !r

let apply ~mem ~relocs ~site_pa ~new_va_of =
  let open Imk_elf.Relocation in
  (* patches the site at offset [pa] of [data]: a storage chunk's store
     inside a run [with_validated_range] already bounds-checked and
     dirtied, or a copy. The 32-bit fields go through the stdlib's byte
     primitives, which compile inline where a dev build (-opaque) would
     call [Byteio]'s *)
  let get_u32 data pa =
    Int32.to_int (Bytes.get_int32_le data pa) land 0xffffffff
  in
  (* stores [v]'s low 32 bits: [Int32.of_int] truncates *)
  let set_u32 data pa v = Bytes.set_int32_le data pa (Int32.of_int v) in
  let patch_in kind data pa site_va =
    match kind with
    | Abs64 ->
        let old_va =
          (* a site pointing at garbage can hold a value outside the
             native-int range; that is a corrupt-relocs symptom, not a
             programming error *)
          try Imk_util.Byteio.get_addr data pa
          with Invalid_argument _ ->
            fail "abs64 site %#x holds a non-address value" site_va
        in
        Imk_util.Byteio.set_addr data pa (new_va_of old_va)
    | Abs32 ->
        let low = get_u32 data pa in
        let old_va =
          try Addr.va_of_low32 low
          with Invalid_argument _ ->
            fail "abs32 site %#x holds non-kernel value %#x" site_va low
        in
        let nva = new_va_of old_va in
        if not (Addr.is_kernel_va nva) then
          fail "abs32 relocation at %#x overflows 32 bits" site_va;
        set_u32 data pa nva
    | Inv32 ->
        let stored = get_u32 data pa in
        let old_va = Addr.inverse_base - stored in
        if not (Addr.is_kernel_va old_va) then
          fail "inv32 site %#x holds non-kernel value %#x" site_va stored;
        let nva = new_va_of old_va in
        let stored' = Addr.inverse_base - nva in
        if stored' < 0 || stored' > 0xffffffff then
          fail "inv32 relocation at %#x underflows" site_va;
        set_u32 data pa stored'
  in
  let copy = Bytes.make 8 '\000' in
  let patch_copy kind width pa site_va =
    Guest_mem.blit_to_bytes mem ~pa ~dst:copy ~dst_off:0 ~len:width;
    patch_in kind copy 0 site_va;
    Guest_mem.write_sub mem ~pa ~src:copy ~src_off:0 ~len:width
  in
  let apply_kind kind width sites =
    let n = Array.length sites in
    let pas = site_pas n in
    (* the one query of [site_pa] per site, in table order *)
    for k = 0 to n - 1 do
      pas.(k) <- site_pa sites.(k)
    done;
    (* the current run is sites [!first, !last], and [!k] the next one
       to patch; one closure patches every storage chunk of every run,
       so a run allocates nothing *)
    let first = ref 0 and last = ref 0 and k = ref 0 in
    let patch_chunk data base =
      let edge = base + Guest_mem.chunk_size and last = !last in
      let j = ref !k in
      while !j <= last && pas.(!j) < edge do
        let pa = pas.(!j) in
        if pa + width <= edge then patch_in kind data (pa - base) sites.(!j)
        else patch_copy kind width pa sites.(!j);
        incr j
      done;
      k := !j
    in
    while !first < n do
      let lo = pas.(!first) in
      let limit =
        Int.min (lo + run_span_max) ((lo lor (Addr.kernel_align - 1)) + 1)
      in
      last := !first;
      (* extend while the physical addresses stay strictly forward and
         non-overlapping and the run stays within the span cap and
         inside [lo]'s 2 MiB block *)
      while
        !last + 1 < n
        && pas.(!last + 1) >= pas.(!last) + width
        && pas.(!last + 1) + width <= limit
      do
        incr last
      done;
      let len = pas.(!last) + width - lo in
      if Guest_mem.valid mem ~pa:lo ~len then begin
        k := !first;
        Guest_mem.with_validated_range mem ~pa:lo ~len patch_chunk
      end
      else
        for k = !first to !last do
          let pa = pas.(k) in
          if Guest_mem.valid mem ~pa ~len:width then
            patch_copy kind width pa sites.(k)
          else
            (* outside the guest: the checked read of the site's width
               faults, and its message names the site's range *)
            try
              ignore
                (if width = 8 then Guest_mem.get_addr mem ~pa
                 else Guest_mem.get_u32 mem ~pa)
            with Guest_mem.Fault m ->
              fail "relocation site %#x outside the loaded image: %s" sites.(k)
                m
        done;
      first := !last + 1
    done
  in
  apply_kind Abs64 8 relocs.abs64;
  apply_kind Abs32 4 relocs.abs32;
  apply_kind Inv32 4 relocs.inv32

open Imk_memory

(* Sections are kept in link order, so [old_va] is non-decreasing and the
   section holding a VA is the greatest rank whose [old_va] is <= it.
   [index] buckets [old_va.(0), old_va.(count - 1)] into at most
   2 x [count] power-of-two-wide slots; [bucket.(b)] is the greatest rank
   whose [old_va] is <= the slot's start, so a lookup reads one slot and
   looks only between it and the next one. *)
type index = { shift : int; bucket : int array }

type plan = {
  count : int;
  order : int array;
  old_va : int array;
  size : int array;
  new_va : int array;
  index : index;
}

let build_index old_va =
  let n = Array.length old_va in
  if n = 0 then { shift = 0; bucket = [||] }
  else begin
    let lo = old_va.(0) in
    let span = old_va.(n - 1) - lo in
    (* a span that overflows (VAs of both signs; no decoder yields them)
       gets one slot: every lookup then searches the whole plan *)
    let shift = ref 0 in
    if span >= 0 then
      while span lsr !shift >= 2 * n do
        incr shift
      done;
    let slots = if span >= 0 then (span lsr !shift) + 1 else 1 in
    let bucket = Array.make slots 0 in
    let r = ref 0 in
    for b = 0 to slots - 1 do
      let start = lo + (b lsl !shift) in
      while !r + 1 < n && old_va.(!r + 1) <= start do
        incr r
      done;
      bucket.(b) <- !r
    done;
    { shift = !shift; bucket }
  end

let validate_sections sections =
  let n = Array.length sections in
  for i = 1 to n - 1 do
    let prev_va, prev_sz = sections.(i - 1) in
    let va, _ = sections.(i) in
    if va < prev_va + prev_sz then
      invalid_arg "Fgkaslr.make_plan: overlapping or unsorted sections"
  done

(* [sections] are validated, hence in link order already *)
let layout ~order ~sections ~text_base =
  let n = Array.length sections in
  let old_va = Array.map fst sections in
  let size = Array.map snd sections in
  let new_va = Array.make n 0 in
  let cursor = ref text_base in
  Array.iter
    (fun original ->
      let va = Addr.align_up !cursor 16 in
      new_va.(original) <- va;
      cursor := va + size.(original))
    order;
  { count = n; order; old_va; size; new_va; index = build_index old_va }

let make_plan rng ~sections ~text_base =
  validate_sections sections;
  let order = Array.init (Array.length sections) (fun i -> i) in
  Imk_entropy.Shuffle.shuffle_in_place rng order;
  layout ~order ~sections ~text_base

(* the blob need not be in link order: sort its pairs once, and point
   [order] back at them so {!displacement_pairs} returns the blob as
   given. Pairs sharing an [old_va] rank by size, then by blob position,
   as {!Loadelf.fn_sections} ranks sections: in a valid table only the
   last of them can be non-empty *)
let plan_of_pairs pairs =
  let n = Array.length pairs in
  let rank = Array.init n (fun i -> i) in
  Array.stable_sort
    (fun a b ->
      let oa, _, sa = pairs.(a) and ob, _, sb = pairs.(b) in
      match Int.compare oa ob with 0 -> Int.compare sa sb | c -> c)
    rank;
  let order = Array.make n 0 in
  Array.iteri (fun r k -> order.(k) <- r) rank;
  let field f = Array.map (fun k -> f pairs.(k)) rank in
  let old_va = field (fun (o, _, _) -> o) in
  let new_va = field (fun (_, nv, _) -> nv) in
  let size = field (fun (_, _, s) -> s) in
  { count = n; order; old_va; size; new_va; index = build_index old_va }

let identity_plan ~sections ~text_base =
  validate_sections sections;
  let order = Array.init (Array.length sections) (fun i -> i) in
  layout ~order ~sections ~text_base

(* greatest rank in [lo, hi] whose [old_va] is <= [va], given that
   [old_va.(lo)] is. Adjacent slots are at most a step or two apart on
   a plan whose sections spread evenly, so the search is O(1) there, and
   O(log n) on a skewed plan (a corrupt setup-data blob, say) *)
let rank_in old_va va lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if old_va.(mid) <= va then lo := mid else hi := mid - 1
  done;
  !lo

(* the section holding [va] is the greatest rank starting at or below it
   (of sections sharing a start, the last in link order); the
   displacement applies only if [va] falls inside that section *)
let displace plan va =
  if plan.count = 0 || va < plan.old_va.(0) then va
  else begin
    let ix = plan.index in
    let slots = Array.length ix.bucket in
    (* [d] is negative only if [va - old_va.(0)] overflowed, past every
       slot like a VA beyond the last section *)
    let d = va - plan.old_va.(0) in
    let b = if d >= 0 then Int.min (d lsr ix.shift) (slots - 1) else slots - 1 in
    let hi = if b + 1 < slots then ix.bucket.(b + 1) else plan.count - 1 in
    let r = rank_in plan.old_va va ix.bucket.(b) hi in
    if va < plan.old_va.(r) + plan.size.(r) then
      va + (plan.new_va.(r) - plan.old_va.(r))
    else va
  end

let displacement_pairs plan =
  Array.map
    (fun original ->
      (plan.old_va.(original), plan.new_va.(original), plan.size.(original)))
    plan.order

(* --- table fixups --- *)

let table_count mem ~pa ~what =
  let count = Guest_mem.get_u32 mem ~pa in
  if count < 0 || count > 10_000_000 then
    raise (Kaslr.Reloc_error (what ^ ": implausible entry count"));
  count

let fixup_kallsyms mem ~pa plan =
  let header = Imk_kernel.Image.kallsyms_header_bytes in
  let entry = Imk_kernel.Image.kallsyms_entry_bytes in
  let count = table_count mem ~pa:(pa + 8) ~what:"kallsyms" in
  (* Offsets are relative to the kallsyms base, which is the kmap base at
     link time; the global delta moves the base itself (via its ordinary
     relocation) and cancels out of the offsets, so the fixup only applies
     per-function displacements, which are delta-free. *)
  let link_base = Addr.kmap_base in
  let entries =
    Array.init count (fun k ->
        let off_pa = pa + header + (k * entry) in
        let off = Guest_mem.get_u32 mem ~pa:off_pa in
        let id = Guest_mem.get_u32 mem ~pa:(off_pa + 4) in
        let old_sym_va = link_base + off in
        let new_sym_va = displace plan old_sym_va in
        (new_sym_va - link_base, id))
  in
  (* monomorphic lexicographic order — identical to polymorphic [compare]
     on int tuples, minus the per-element dispatch in this hot sort *)
  Array.sort
    (fun (o1, i1) (o2, i2) ->
      match Int.compare o1 o2 with 0 -> Int.compare i1 i2 | c -> c)
    entries;
  Array.iteri
    (fun k (off, id) ->
      let off_pa = pa + header + (k * entry) in
      Guest_mem.set_u32 mem ~pa:off_pa off;
      Guest_mem.set_u32 mem ~pa:(off_pa + 4) id)
    entries

let fixup_extab mem ~pa ~extab_va plan =
  let header = Imk_kernel.Image.extab_header_bytes in
  let entry = Imk_kernel.Image.extab_entry_bytes in
  let count = table_count mem ~pa ~what:"extab" in
  let entries =
    Array.init count (fun k ->
        let off = header + (k * entry) in
        let entry_va = extab_va + off in
        let fault_disp = Guest_mem.get_u32_signed mem ~pa:(pa + off) in
        let handler_disp = Guest_mem.get_u32_signed mem ~pa:(pa + off + 4) in
        let fault_fn = Guest_mem.get_u32 mem ~pa:(pa + off + 8) in
        let handler_fn = Guest_mem.get_u32 mem ~pa:(pa + off + 12) in
        let fault_off = Guest_mem.get_u32 mem ~pa:(pa + off + 16) in
        let fault_va = entry_va + fault_disp in
        let handler_va = entry_va + 4 + handler_disp in
        let new_fault = displace plan fault_va in
        let new_handler = displace plan handler_va in
        (new_fault, new_handler, fault_fn, handler_fn, fault_off))
  in
  Array.sort
    (fun (a1, b1, c1, d1, e1) (a2, b2, c2, d2, e2) ->
      match Int.compare a1 a2 with
      | 0 -> (
          match Int.compare b1 b2 with
          | 0 -> (
              match Int.compare c1 c2 with
              | 0 -> (
                  match Int.compare d1 d2 with
                  | 0 -> Int.compare e1 e2
                  | c -> c)
              | c -> c)
          | c -> c)
      | c -> c)
    entries;
  Array.iteri
    (fun k (fault_va, handler_va, fault_fn, handler_fn, fault_off) ->
      let off = header + (k * entry) in
      let entry_va = extab_va + off in
      Guest_mem.set_u32 mem ~pa:(pa + off) ((fault_va - entry_va) land 0xffffffff);
      Guest_mem.set_u32 mem ~pa:(pa + off + 4)
        ((handler_va - (entry_va + 4)) land 0xffffffff);
      Guest_mem.set_u32 mem ~pa:(pa + off + 8) fault_fn;
      Guest_mem.set_u32 mem ~pa:(pa + off + 12) handler_fn;
      Guest_mem.set_u32 mem ~pa:(pa + off + 16) fault_off)
    entries

let fixup_orc mem ~pa ~orc_va plan =
  let header = Imk_kernel.Image.orc_header_bytes in
  let entry = Imk_kernel.Image.orc_entry_bytes in
  let count = table_count mem ~pa ~what:"orc" in
  let entries =
    Array.init count (fun k ->
        let off = header + (k * entry) in
        let entry_va = orc_va + off in
        let ip_disp = Guest_mem.get_u32_signed mem ~pa:(pa + off) in
        let id = Guest_mem.get_u32 mem ~pa:(pa + off + 4) in
        (displace plan (entry_va + ip_disp), id))
  in
  Array.sort
    (fun (v1, i1) (v2, i2) ->
      match Int.compare v1 v2 with 0 -> Int.compare i1 i2 | c -> c)
    entries;
  Array.iteri
    (fun k (ip_va, id) ->
      let off = header + (k * entry) in
      let entry_va = orc_va + off in
      Guest_mem.set_u32 mem ~pa:(pa + off) ((ip_va - entry_va) land 0xffffffff);
      Guest_mem.set_u32 mem ~pa:(pa + off + 4) id)
    entries

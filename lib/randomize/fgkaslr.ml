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

(* the image half of a plan: everything but the shuffle. [valid] is
   false for sections that overlap or are out of link order, which
   {!draw} rejects before it draws anything *)
type table = {
  valid : bool;
  t_old_va : int array;
  t_size : int array;
  t_index : index;
}

let table ~sections =
  let n = Array.length sections in
  let old_va = Array.map fst sections and size = Array.map snd sections in
  let valid = ref true in
  for i = 1 to n - 1 do
    if old_va.(i) < old_va.(i - 1) + size.(i - 1) then valid := false
  done;
  {
    valid = !valid;
    t_old_va = old_va;
    t_size = size;
    t_index = (if !valid then build_index old_va else build_index [||]);
  }

let check_table t =
  if not t.valid then
    invalid_arg "Fgkaslr.make_plan: overlapping or unsorted sections"

(* [t] is valid, hence in link order already *)
let layout ~order t ~text_base =
  let n = Array.length order in
  let size = t.t_size in
  let new_va = Array.make n 0 in
  let cursor = ref text_base in
  for k = 0 to n - 1 do
    let original = order.(k) in
    let va = Addr.align_up !cursor 16 in
    new_va.(original) <- va;
    cursor := va + size.(original)
  done;
  { count = n; order; old_va = t.t_old_va; size; new_va; index = t.t_index }

let identity_order n = Array.init n (fun i -> i)

let draw rng t ~text_base =
  check_table t;
  let order = identity_order (Array.length t.t_old_va) in
  Imk_entropy.Shuffle.shuffle_in_place rng order;
  layout ~order t ~text_base

let make_plan rng ~sections ~text_base = draw rng (table ~sections) ~text_base

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
  let t = table ~sections in
  check_table t;
  layout ~order:(identity_order (Array.length t.t_old_va)) t ~text_base

(* the greatest rank starting at or below [va], for a non-empty plan and
   a [va] at or above the first section: [va]'s bucket names a rank
   starting at or below it, and the next bucket bounds the search.
   Adjacent buckets are at most a step or two apart on a plan whose
   sections spread evenly, so the search is O(1) there, and O(log n) on
   a skewed plan (a corrupt setup-data blob, say) *)
let rank_of plan va =
  let ix = plan.index and old_va = plan.old_va in
  let slots = Array.length ix.bucket in
  (* [d] is negative only if [va - old_va.(0)] overflowed, past every
     slot like a VA beyond the last section *)
  let d = va - old_va.(0) in
  let b = if d >= 0 then Int.min (d lsr ix.shift) (slots - 1) else slots - 1 in
  let lo = ref ix.bucket.(b) in
  let hi = ref (if b + 1 < slots then ix.bucket.(b + 1) else plan.count - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if old_va.(mid) <= va then lo := mid else hi := mid - 1
  done;
  !lo

(* the section holding [va] is the greatest rank starting at or below it
   (of sections sharing a start, the last in link order); the
   displacement applies only if [va] falls inside that section *)
let displace plan va =
  let old_va = plan.old_va in
  if plan.count = 0 || va < old_va.(0) then va
  else begin
    let r = rank_of plan va in
    let o = old_va.(r) in
    if va < o + plan.size.(r) then va + (plan.new_va.(r) - o) else va
  end

(* The cursor: the rank the last query resolved to. A query at or above
   that section's start is answered by that section or the next one
   when the section after them starts above it; a query below the
   cursor, or further ahead, asks the index. Either way the rank is the
   greatest starting at or below the VA, so a mapper answers every query
   exactly as {!displace} does, and an ascending sequence of queries
   that visits most sections in turn stays on the cursor. *)
type mapper = { plan : plan; mutable rank : int }

let mapper plan = { plan; rank = 0 }

let map m va =
  let p = m.plan in
  let old_va = p.old_va and n = p.count in
  if n = 0 || va < old_va.(0) then va
  else begin
    let r = m.rank in
    let r =
      if old_va.(r) > va then rank_of p va
      else if r + 1 = n || old_va.(r + 1) > va then r
      else if r + 2 = n || old_va.(r + 2) > va then r + 1
      else rank_of p va
    in
    m.rank <- r;
    let o = old_va.(r) in
    if va < o + p.size.(r) then va + (p.new_va.(r) - o) else va
  end

let displacement_pairs plan =
  Array.map
    (fun original ->
      (plan.old_va.(original), plan.new_va.(original), plan.size.(original)))
    plan.order

(* --- table fixups --- *)

(* Entries are read into flat rows of [width] ints, one row per entry,
   and sorted in place by a heapsort over the rows. Every field of an
   entry is a sort key, so two rows compare equal only when they are
   identical: which of them lands first cannot show, and the unstable
   sort writes the table a stable sort of the same keys would. The sort
   is loops over one int array, so it allocates nothing. *)

let row_compare (rows : int array) width i j =
  let i = i * width and j = j * width in
  let c = ref 0 and k = ref 0 in
  while !c = 0 && !k < width do
    c := Int.compare rows.(i + !k) rows.(j + !k);
    incr k
  done;
  !c

let swap_rows (rows : int array) width i j =
  let i = i * width and j = j * width in
  for k = 0 to width - 1 do
    let t = rows.(i + k) in
    rows.(i + k) <- rows.(j + k);
    rows.(j + k) <- t
  done

(* restore the max-heap property below [root] in rows [0, n) *)
let rec sift rows width root n =
  let child = (2 * root) + 1 in
  if child < n then begin
    let child =
      if child + 1 < n && row_compare rows width child (child + 1) < 0 then
        child + 1
      else child
    in
    if row_compare rows width root child < 0 then begin
      swap_rows rows width root child;
      sift rows width child n
    end
  end

let sort_rows rows ~width n =
  for root = (n / 2) - 1 downto 0 do
    sift rows width root n
  done;
  for last = n - 1 downto 1 do
    swap_rows rows width 0 last;
    sift rows width 0 last
  done

let table_count mem ~pa ~what =
  let count = Guest_mem.get_u32 mem ~pa in
  if count < 0 || count > 10_000_000 then
    raise (Kaslr.Reloc_error (what ^ ": implausible entry count"));
  count

(* A table whose entries run off the guest faults at its first field
   outside it, as reading it entry by entry does; this finds that field
   before any row is allocated, so a corrupt count allocates rows only
   for entries inside the guest. Every field is 4 bytes wide and read
   in address order. Every entry before the one holding the guest's end
   lies inside the guest, so the probe starts there and faults within
   two entries' fields, whatever the count. *)
let probe_fields mem ~pa ~count ~entry ~fields =
  if not (Guest_mem.valid mem ~pa ~len:(count * entry)) then begin
    let first =
      if pa < 0 then 0
      else Int.max 0 (Int.min count ((Guest_mem.size mem - pa) / entry))
    in
    for k = first to count - 1 do
      for f = 0 to fields - 1 do
        ignore (Guest_mem.get_u32 mem ~pa:(pa + (k * entry) + (4 * f)))
      done
    done
  end

let fixup_kallsyms mem ~pa plan =
  let header = Imk_kernel.Image.kallsyms_header_bytes in
  let entry = Imk_kernel.Image.kallsyms_entry_bytes in
  let count = table_count mem ~pa:(pa + 8) ~what:"kallsyms" in
  probe_fields mem ~pa:(pa + header) ~count ~entry ~fields:2;
  (* Offsets are relative to the kallsyms base, which is the kmap base at
     link time; the global delta moves the base itself (via its ordinary
     relocation) and cancels out of the offsets, so the fixup only applies
     per-function displacements, which are delta-free. *)
  let link_base = Addr.kmap_base in
  let rows = Array.make (2 * count) 0 in
  for k = 0 to count - 1 do
    let off_pa = pa + header + (k * entry) in
    let off = Guest_mem.get_u32 mem ~pa:off_pa in
    let id = Guest_mem.get_u32 mem ~pa:(off_pa + 4) in
    rows.(2 * k) <- displace plan (link_base + off) - link_base;
    rows.((2 * k) + 1) <- id
  done;
  sort_rows rows ~width:2 count;
  for k = 0 to count - 1 do
    let off_pa = pa + header + (k * entry) in
    Guest_mem.set_u32 mem ~pa:off_pa rows.(2 * k);
    Guest_mem.set_u32 mem ~pa:(off_pa + 4) rows.((2 * k) + 1)
  done

let fixup_extab mem ~pa ~extab_va plan =
  let header = Imk_kernel.Image.extab_header_bytes in
  let entry = Imk_kernel.Image.extab_entry_bytes in
  let count = table_count mem ~pa ~what:"extab" in
  probe_fields mem ~pa:(pa + header) ~count ~entry ~fields:5;
  (* a row: new fault VA, new handler VA, fault fn, handler fn, fault
     offset — the entry's sort key, field by field *)
  let rows = Array.make (5 * count) 0 in
  for k = 0 to count - 1 do
    let off = header + (k * entry) in
    let entry_va = extab_va + off in
    let fault_disp = Guest_mem.get_u32_signed mem ~pa:(pa + off) in
    let handler_disp = Guest_mem.get_u32_signed mem ~pa:(pa + off + 4) in
    let row = 5 * k in
    rows.(row + 2) <- Guest_mem.get_u32 mem ~pa:(pa + off + 8);
    rows.(row + 3) <- Guest_mem.get_u32 mem ~pa:(pa + off + 12);
    rows.(row + 4) <- Guest_mem.get_u32 mem ~pa:(pa + off + 16);
    rows.(row) <- displace plan (entry_va + fault_disp);
    rows.(row + 1) <- displace plan (entry_va + 4 + handler_disp)
  done;
  sort_rows rows ~width:5 count;
  for k = 0 to count - 1 do
    let off = header + (k * entry) in
    let entry_va = extab_va + off in
    let row = 5 * k in
    Guest_mem.set_u32 mem ~pa:(pa + off)
      ((rows.(row) - entry_va) land 0xffffffff);
    Guest_mem.set_u32 mem ~pa:(pa + off + 4)
      ((rows.(row + 1) - (entry_va + 4)) land 0xffffffff);
    Guest_mem.set_u32 mem ~pa:(pa + off + 8) rows.(row + 2);
    Guest_mem.set_u32 mem ~pa:(pa + off + 12) rows.(row + 3);
    Guest_mem.set_u32 mem ~pa:(pa + off + 16) rows.(row + 4)
  done

let fixup_orc mem ~pa ~orc_va plan =
  let header = Imk_kernel.Image.orc_header_bytes in
  let entry = Imk_kernel.Image.orc_entry_bytes in
  let count = table_count mem ~pa ~what:"orc" in
  probe_fields mem ~pa:(pa + header) ~count ~entry ~fields:2;
  let rows = Array.make (2 * count) 0 in
  for k = 0 to count - 1 do
    let off = header + (k * entry) in
    let entry_va = orc_va + off in
    let ip_disp = Guest_mem.get_u32_signed mem ~pa:(pa + off) in
    rows.((2 * k) + 1) <- Guest_mem.get_u32 mem ~pa:(pa + off + 4);
    rows.(2 * k) <- displace plan (entry_va + ip_disp)
  done;
  sort_rows rows ~width:2 count;
  for k = 0 to count - 1 do
    let off = header + (k * entry) in
    let entry_va = orc_va + off in
    Guest_mem.set_u32 mem ~pa:(pa + off)
      ((rows.(2 * k) - entry_va) land 0xffffffff);
    Guest_mem.set_u32 mem ~pa:(pa + off + 4) rows.((2 * k) + 1)
  done

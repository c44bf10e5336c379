open Imk_memory

type plan = {
  count : int;
  order : int array;
  old_va : int array;
  size : int array;
  new_va : int array;
  sorted_old : int array;
}

let validate_sections sections =
  let n = Array.length sections in
  for i = 1 to n - 1 do
    let prev_va, prev_sz = sections.(i - 1) in
    let va, _ = sections.(i) in
    if va < prev_va + prev_sz then
      invalid_arg "Fgkaslr.make_plan: overlapping or unsorted sections"
  done

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
  let sorted_old = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Int.compare old_va.(a) old_va.(b)) sorted_old;
  { count = n; order; old_va; size; new_va; sorted_old }

let make_plan rng ~sections ~text_base =
  validate_sections sections;
  let order = Array.init (Array.length sections) (fun i -> i) in
  Imk_entropy.Shuffle.shuffle_in_place rng order;
  layout ~order ~sections ~text_base

let plan_of_pairs pairs =
  let n = Array.length pairs in
  let order = Array.init n (fun i -> i) in
  let old_va = Array.map (fun (o, _, _) -> o) pairs in
  let new_va = Array.map (fun (_, nv, _) -> nv) pairs in
  let size = Array.map (fun (_, _, s) -> s) pairs in
  let sorted_old = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Int.compare old_va.(a) old_va.(b)) sorted_old;
  { count = n; order; old_va; size; new_va; sorted_old }

let identity_plan ~sections ~text_base =
  validate_sections sections;
  let order = Array.init (Array.length sections) (fun i -> i) in
  layout ~order ~sections ~text_base

(* binary search: greatest section whose old_va <= va; displacement
   applies only if va falls inside that section *)
let displace plan va =
  if plan.count = 0 then va
  else begin
    let lo = ref 0 and hi = ref (plan.count - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let idx = plan.sorted_old.(mid) in
      if plan.old_va.(idx) <= va then begin
        found := idx;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !found >= 0 && va < plan.old_va.(!found) + plan.size.(!found) then
      va + (plan.new_va.(!found) - plan.old_va.(!found))
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

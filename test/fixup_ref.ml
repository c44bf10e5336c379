(* Reference model of Imk_randomize.Fgkaslr's table fixups: the three
   functions as they were before the fixups stopped boxing entries. Each
   reads every entry into a tuple, sorts the tuple array with a
   lexicographic comparison closure and writes the entries back.
   Production sorts flat rows of ints in place; test_randomize's
   differential property pins every written table, and every raised
   error, to these, like Fgkaslr.displace to Displace_ref. The bodies
   are unchanged apart from qualified names. *)

open Imk_memory
module Fgkaslr = Imk_randomize.Fgkaslr

let displace = Fgkaslr.displace

let table_count mem ~pa ~what =
  let count = Guest_mem.get_u32 mem ~pa in
  if count < 0 || count > 10_000_000 then
    raise (Imk_randomize.Kaslr.Reloc_error (what ^ ": implausible entry count"));
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

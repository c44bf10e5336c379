(* Reference model of Imk_guest.Runtime's verification walk: the
   straightforward version that copies every record out of guest memory
   with [Guest_mem.read_bytes] inside a [try] and decodes its fields from
   the copy, returns tuples, builds a [what] closure per check and queues
   function VAs in a [Queue.t], skipping duplicates when they are popped.
   The production walk reads each record through a [Guest_mem.view] and
   runs its check inside one [try], so it builds no tuple, compares
   function magics without boxing and marks a function when it is
   queued; test_guest's differential property pins its stats, layouts,
   exceptions and panic messages to this one, like Crc.crc32 to
   crc32_ref. A record is read whole: one that leaves the guest panics
   naming the record, with [read_bytes]'s fault for its whole range, and
   one whose bytes do not decode ([Invalid_argument]) panics naming it
   too. *)

open Imk_memory
open Imk_kernel
module Boot_params = Imk_guest.Boot_params
module Byteio = Imk_util.Byteio

let panic fmt =
  Printf.ksprintf (fun s -> raise (Imk_guest.Runtime.Panic s)) fmt

(* a copy of the [len]-byte record at [pa] *)
let record mem ~pa ~len = Guest_mem.read_bytes mem ~pa ~len

let read_fn_header mem params ~va =
  let pa = Boot_params.va_to_pa params va in
  let magic, id, n_sites, size =
    try
      let b = record mem ~pa ~len:Function_graph.fn_header_bytes in
      (* raw 64-bit read: a bad pointer may land on arbitrary bytes *)
      ( Byteio.get_i64 b 0,
        Byteio.get_u32 b 8,
        Byteio.get_u32 b 12,
        Byteio.get_u32 b 16 )
    with Guest_mem.Fault m -> panic "function header at va %#x: %s" va m
  in
  if magic <> Int64.of_int (Function_graph.fn_magic id) then
    panic "bad function magic at va %#x (claims id %d)" va id;
  (id, n_sites, size)

(* [what] is built lazily: it is hot-loop metadata that only matters on
   the panic path *)
let check_fn mem params ~va ~expect_id ~what =
  let id, _, _ = read_fn_header mem params ~va in
  if id <> expect_id then
    panic "%s: va %#x holds function %d, expected %d" (what ()) va id expect_id

let target_va_of_site kind value =
  match kind with
  | Imk_elf.Relocation.Abs64 -> value
  | Imk_elf.Relocation.Abs32 -> (
      try Addr.va_of_low32 value
      with Invalid_argument _ -> panic "abs32 site holds non-kernel value %#x" value)
  | Imk_elf.Relocation.Inv32 -> Addr.inverse_base - value

let walk_functions mem params =
  let n = params.Boot_params.kernel.Boot_params.n_functions in
  let visited = Array.make n false in
  let fn_va = Array.make n (-1) in
  let queue = Queue.create () in
  let sites = ref 0 in
  Queue.add params.Boot_params.entry_va queue;
  while not (Queue.is_empty queue) do
    let va = Queue.pop queue in
    let id, n_sites, _size = read_fn_header mem params ~va in
    if id < 0 || id >= n then panic "function id %d out of range at %#x" id va;
    if not visited.(id) then begin
      visited.(id) <- true;
      fn_va.(id) <- va;
      for k = 0 to n_sites - 1 do
        let site_va =
          va + Function_graph.fn_header_bytes + (k * Function_graph.site_bytes)
        in
        let site_pa = Boot_params.va_to_pa params site_va in
        let kind, target_id, value =
          try
            let b = record mem ~pa:site_pa ~len:Function_graph.site_bytes in
            let kind = Image.site_kind_of_code (Byteio.get_u8 b 0) in
            let target_id = Byteio.get_u32 b 4 in
            let value =
              match kind with
              | Imk_elf.Relocation.Abs64 -> Byteio.get_addr b 8
              | Imk_elf.Relocation.Abs32 | Imk_elf.Relocation.Inv32 ->
                  Byteio.get_u32 b 8
            in
            (kind, target_id, value)
          with Guest_mem.Fault m | Invalid_argument m ->
            panic "call site at va %#x: %s" site_va m
        in
        let target_va = target_va_of_site kind value in
        check_fn mem params ~va:target_va ~expect_id:target_id
          ~what:(fun () ->
            Printf.sprintf "call from fn %d via %s" id
              (Imk_elf.Relocation.kind_name kind));
        incr sites;
        if target_id >= 0 && target_id < n && not visited.(target_id) then
          Queue.add target_va queue
      done
    end
  done;
  let count = Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 visited in
  if count <> n then
    panic "only %d of %d functions reachable after boot" count n;
  (count, !sites, fn_va)

let verify_rodata mem params =
  let info = params.Boot_params.kernel in
  let delta = Boot_params.delta params in
  let va = info.Boot_params.link_rodata_va + delta in
  let pa = Boot_params.va_to_pa params va in
  let count =
    try Byteio.get_u32 (record mem ~pa ~len:Image.rodata_header_bytes) 0
    with Guest_mem.Fault m -> panic "rodata at va %#x: %s" va m
  in
  for k = 0 to count - 1 do
    let entry_va = va + Image.rodata_header_bytes + (k * Image.rodata_entry_bytes) in
    let entry_pa = Boot_params.va_to_pa params entry_va in
    let ptr, id =
      try
        let b = record mem ~pa:entry_pa ~len:Image.rodata_entry_bytes in
        (Byteio.get_addr b 0, Byteio.get_u32 b 8)
      with Guest_mem.Fault m | Invalid_argument m ->
        panic "rodata entry at va %#x: %s" entry_va m
    in
    check_fn mem params ~va:ptr ~expect_id:id ~what:(fun () -> "rodata pointer")
  done;
  count

let verify_kallsyms mem params =
  let info = params.Boot_params.kernel in
  let delta = Boot_params.delta params in
  let va = info.Boot_params.link_kallsyms_va + delta in
  let pa = Boot_params.va_to_pa params va in
  let base, count =
    try
      let b = record mem ~pa ~len:Image.kallsyms_header_bytes in
      (Byteio.get_addr b 0, Byteio.get_u32 b 8)
    with Guest_mem.Fault m | Invalid_argument m ->
      panic "kallsyms at va %#x: %s" va m
  in
  if base <> Addr.kmap_base + delta then
    panic "kallsyms base %#x not relocated (expected %#x)" base
      (Addr.kmap_base + delta);
  let prev = ref (-1) in
  for k = 0 to count - 1 do
    let entry_va = va + Image.kallsyms_header_bytes + (k * Image.kallsyms_entry_bytes) in
    let entry_pa = Boot_params.va_to_pa params entry_va in
    let off, id =
      try
        let b = record mem ~pa:entry_pa ~len:Image.kallsyms_entry_bytes in
        (Byteio.get_u32 b 0, Byteio.get_u32 b 4)
      with Guest_mem.Fault m -> panic "kallsyms entry at va %#x: %s" entry_va m
    in
    if off <= !prev then panic "kallsyms not sorted at entry %d" k;
    prev := off;
    check_fn mem params ~va:(base + off) ~expect_id:id
      ~what:(fun () -> "kallsyms symbol")
  done;
  count

let verify_extab mem params =
  let info = params.Boot_params.kernel in
  let delta = Boot_params.delta params in
  let va = info.Boot_params.link_extab_va + delta in
  let pa = Boot_params.va_to_pa params va in
  let count =
    try Byteio.get_u32 (record mem ~pa ~len:Image.extab_header_bytes) 0
    with Guest_mem.Fault m -> panic "extab at va %#x: %s" va m
  in
  let prev = ref min_int in
  for k = 0 to count - 1 do
    let entry_va = va + Image.extab_header_bytes + (k * Image.extab_entry_bytes) in
    let entry_pa = Boot_params.va_to_pa params entry_va in
    let fault_disp, handler_disp, fault_fn, handler_fn, fault_off =
      try
        let b = record mem ~pa:entry_pa ~len:Image.extab_entry_bytes in
        ( Byteio.get_u32_signed b 0,
          Byteio.get_u32_signed b 4,
          Byteio.get_u32 b 8,
          Byteio.get_u32 b 12,
          Byteio.get_u32 b 16 )
      with Guest_mem.Fault m -> panic "extab entry at va %#x: %s" entry_va m
    in
    let fault_va = entry_va + fault_disp in
    let handler_va = entry_va + 4 + handler_disp in
    (* non-strict: distinct entries may share a fault address *)
    if fault_va < !prev then panic "extab not sorted at entry %d" k;
    prev := fault_va;
    check_fn mem params ~va:(fault_va - fault_off) ~expect_id:fault_fn
      ~what:(fun () -> "extab fault site");
    check_fn mem params ~va:handler_va ~expect_id:handler_fn
      ~what:(fun () -> "extab handler")
  done;
  count

let verify_orc mem params =
  match params.Boot_params.kernel.Boot_params.link_orc_va with
  | None -> 0
  | Some link_va ->
      if not params.Boot_params.orc_fixed then 0
      else begin
        let delta = Boot_params.delta params in
        let va = link_va + delta in
        let pa = Boot_params.va_to_pa params va in
        let count =
          try Byteio.get_u32 (record mem ~pa ~len:Image.orc_header_bytes) 0
          with Guest_mem.Fault m -> panic "orc at va %#x: %s" va m
        in
        let prev = ref min_int in
        for k = 0 to count - 1 do
          let entry_va = va + Image.orc_header_bytes + (k * Image.orc_entry_bytes) in
          let entry_pa = Boot_params.va_to_pa params entry_va in
          let ip_disp =
            try
              Byteio.get_u32_signed
                (record mem ~pa:entry_pa ~len:Image.orc_entry_bytes)
                0
            with Guest_mem.Fault m -> panic "orc entry at va %#x: %s" entry_va m
          in
          let ip_va = entry_va + ip_disp in
          if ip_va < !prev then panic "orc not sorted at entry %d" k;
          prev := ip_va
        done;
        count
      end

let fn_layout mem params =
  let _, _, fn_va = walk_functions mem params in
  fn_va

let verify_boot mem params : Imk_guest.Runtime.verify_stats =
  let functions_visited, sites_verified, _fn_va = walk_functions mem params in
  let rodata_verified = verify_rodata mem params in
  let extab_verified = verify_extab mem params in
  let kallsyms_verified =
    if params.Boot_params.kallsyms_fixed then verify_kallsyms mem params else 0
  in
  let orc_verified = verify_orc mem params in
  {
    Imk_guest.Runtime.functions_visited;
    sites_verified;
    rodata_verified;
    extab_verified;
    kallsyms_verified;
    orc_verified;
  }

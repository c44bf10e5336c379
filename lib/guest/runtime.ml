open Imk_memory
open Imk_kernel

exception Panic of string

let panic fmt = Printf.ksprintf (fun s -> raise (Panic s)) fmt

type verify_stats = {
  functions_visited : int;
  sites_verified : int;
  rodata_verified : int;
  extab_verified : int;
  kallsyms_verified : int;
  orc_verified : int;
}

(* The walk reads tens of thousands of small records per boot and is
   not on the virtual clock, so its host cost is pure overhead. Every
   record (function header, call site, table header or table entry) is
   read one way: one [Guest_mem.view] bounds-checks it whole and returns
   the bytes that hold it, and its one decoder reads the fields at
   [chunk_off pa] inside one [try], allocating nothing. A record that
   leaves the guest panics naming the record, with the fault for its
   whole range. Guest bytes that do not decode, a site-kind byte naming
   no kind or a 64-bit pointer of 2^62 or more, raise [Invalid_argument];
   they are guest damage like a read off the guest, so the record's
   handler turns both into its [Panic]. A record is decoded before the
   next view is taken, which may reuse the bounce buffer. A header is
   read once per VA the walk reaches its function at: guest memory does
   not change while the boot verifies, so a pointer to a reached
   function's VA matches it without a second read (most of a kernel's
   call sites point at a function some earlier site reached).
   test_guest pins this walk to test/verify_ref.ml. *)

(* where [pa] lies in the store a [Guest_mem.view] of it returns *)
let chunk_off pa = pa land (Guest_mem.chunk_size - 1)

(* A view's fields are read with the stdlib's byte primitives, which
   compile inline, as [Byteio]'s readers would do if a dev build
   (-opaque) inlined across modules: [u32] is [Byteio.get_u32], [s32]
   [Byteio.get_u32_signed], and a site-kind byte the three codes miss
   goes to [Image.site_kind_of_code] for its error *)
let u32 v o = Int32.to_int (Bytes.get_int32_le v o) land 0xffffffff
let s32 v o = Int32.to_int (Bytes.get_int32_le v o)

let site_kind v o =
  match Bytes.get_uint8 v o with
  | 0 -> Imk_elf.Relocation.Abs64
  | 1 -> Imk_elf.Relocation.Abs32
  | 2 -> Imk_elf.Relocation.Inv32
  | c -> Image.site_kind_of_code c

(* whether the function header in [v] at [o] carries [id]'s magic.
   [fn_magic id] is below 2^62, so the stored 64-bit magic equals it iff
   its two 32-bit halves do: compared as ints, nothing is boxed *)
let magic_ok v o id =
  let m = Function_graph.fn_magic id in
  u32 v o = m land 0xffffffff && u32 v (o + 4) = m lsr 32

(* the id of the function whose header is at [va], checked against its
   magic *)
let header_id mem params ~va =
  let pa = Boot_params.va_to_pa params va in
  let v =
    try Guest_mem.view mem ~pa ~len:Function_graph.fn_header_bytes
    with Guest_mem.Fault m -> panic "function header at va %#x: %s" va m
  in
  let o = chunk_off pa in
  let id = u32 v (o + 8) in
  if not (magic_ok v o id) then
    panic "bad function magic at va %#x (claims id %d)" va id;
  id

let fn_at mem params ~va =
  let pa = Boot_params.va_to_pa params va in
  let len = Function_graph.fn_header_bytes in
  if Guest_mem.valid mem ~pa ~len then begin
    let v = Guest_mem.view mem ~pa ~len and o = chunk_off pa in
    let id = u32 v (o + 8) in
    if magic_ok v o id then Some id else None
  end
  else None

(* [fn_va] is a finished walk's layout: every function's header was read
   at its VA and matched its id. Guest memory does not change while the
   boot verifies, so a pointer to [expect_id]'s own VA needs no second
   read; any other pointer is checked as the walk checks one *)
let check_fn mem params fn_va ~va ~expect_id ~what =
  if
    not
      (expect_id >= 0 && expect_id < Array.length fn_va
      && fn_va.(expect_id) = va)
  then begin
    let id = header_id mem params ~va in
    if id <> expect_id then
      panic "%s: va %#x holds function %d, expected %d" what va id expect_id
  end

let target_va_of_site kind value =
  match kind with
  | Imk_elf.Relocation.Abs64 -> value
  | Imk_elf.Relocation.Abs32 -> (
      try Addr.va_of_low32 value
      with Invalid_argument _ -> panic "abs32 site holds non-kernel value %#x" value)
  | Imk_elf.Relocation.Inv32 -> Addr.inverse_base - value

(* the walk's state: [queue.(head .. tail-1)] are the ids still to walk.
   A function is marked [visited] and queued when first reached, so each
   is queued at most once and [queue] needs [n] slots. *)
type walk = {
  visited : bool array;
  fn_va : int array;
  queue : int array;
  mutable head : int;
  mutable tail : int;
  mutable sites : int;
}

let reach w ~id ~va =
  w.visited.(id) <- true;
  w.fn_va.(id) <- va;
  w.queue.(w.tail) <- id;
  w.tail <- w.tail + 1

(* a site pointing at a function the walk already reached, at the VA
   where the walk read and matched its header, is checked: the header
   cannot have changed since. Every other site's target is read *)
let follow_site mem params w ~from ~kind ~target_id ~value =
  let target_va = target_va_of_site kind value in
  let in_range = target_id >= 0 && target_id < Array.length w.visited in
  if not (in_range && w.visited.(target_id) && w.fn_va.(target_id) = target_va)
  then begin
    let id = header_id mem params ~va:target_va in
    if id <> target_id then
      panic "call from fn %d via %s: va %#x holds function %d, expected %d"
        from
        (Imk_elf.Relocation.kind_name kind)
        target_va id target_id
  end;
  w.sites <- w.sites + 1;
  if in_range && not w.visited.(target_id) then
    reach w ~id:target_id ~va:target_va

(* [follow_site] raises neither [Fault] nor [Invalid_argument]:
   [header_id] turns a fault into a [Panic], and [target_va_of_site]
   turns a bad abs32 value into one *)
let walk_site mem params w ~from ~site_va =
  let pa = Boot_params.va_to_pa params site_va in
  try
    let v = Guest_mem.view mem ~pa ~len:Function_graph.site_bytes in
    let o = chunk_off pa in
    let kind = site_kind v o in
    let target_id = u32 v (o + 4) in
    let value =
      match kind with
      | Imk_elf.Relocation.Abs64 -> Imk_util.Byteio.get_addr v (o + 8)
      | Imk_elf.Relocation.Abs32 | Imk_elf.Relocation.Inv32 -> u32 v (o + 8)
    in
    follow_site mem params w ~from ~kind ~target_id ~value
  with Guest_mem.Fault m | Invalid_argument m ->
    panic "call site at va %#x: %s" site_va m

let walk_functions mem params =
  let n = params.Boot_params.kernel.Boot_params.n_functions in
  let w =
    {
      visited = Array.make n false;
      fn_va = Array.make n (-1);
      queue = Array.make n 0;
      head = 0;
      tail = 0;
      sites = 0;
    }
  in
  let entry = params.Boot_params.entry_va in
  let id = header_id mem params ~va:entry in
  if id < 0 || id >= n then panic "function id %d out of range at %#x" id entry;
  reach w ~id ~va:entry;
  while w.head < w.tail do
    let id = w.queue.(w.head) in
    w.head <- w.head + 1;
    let va = w.fn_va.(id) in
    (* the header was checked whole when [id] was reached *)
    let pa = Boot_params.va_to_pa params va in
    let n_sites =
      u32
        (Guest_mem.view mem ~pa ~len:Function_graph.fn_header_bytes)
        (chunk_off pa + 12)
    in
    for k = 0 to n_sites - 1 do
      walk_site mem params w ~from:id
        ~site_va:
          (va + Function_graph.fn_header_bytes + (k * Function_graph.site_bytes))
    done
  done;
  if w.tail <> n then
    panic "only %d of %d functions reachable after boot" w.tail n;
  (w.tail, w.sites, w.fn_va)

(* a table's element count, from the [header]-byte header at [va] *)
let table_count mem params ~va ~header ~what =
  let pa = Boot_params.va_to_pa params va in
  try u32 (Guest_mem.view mem ~pa ~len:header) (chunk_off pa)
  with Guest_mem.Fault m -> panic "%s at va %#x: %s" what va m

let verify_rodata mem params fn_va =
  let info = params.Boot_params.kernel in
  let va = info.Boot_params.link_rodata_va + Boot_params.delta params in
  let count =
    table_count mem params ~va ~header:Image.rodata_header_bytes ~what:"rodata"
  in
  for k = 0 to count - 1 do
    let entry_va = va + Image.rodata_header_bytes + (k * Image.rodata_entry_bytes) in
    let pa = Boot_params.va_to_pa params entry_va in
    try
      let v = Guest_mem.view mem ~pa ~len:Image.rodata_entry_bytes in
      let o = chunk_off pa in
      let ptr = Imk_util.Byteio.get_addr v o in
      let id = u32 v (o + 8) in
      check_fn mem params fn_va ~va:ptr ~expect_id:id ~what:"rodata pointer"
    with Guest_mem.Fault m | Invalid_argument m ->
      panic "rodata entry at va %#x: %s" entry_va m
  done;
  count

let verify_kallsyms mem params fn_va =
  let info = params.Boot_params.kernel in
  let delta = Boot_params.delta params in
  let va = info.Boot_params.link_kallsyms_va + delta in
  let pa = Boot_params.va_to_pa params va in
  let base, count =
    try
      let v = Guest_mem.view mem ~pa ~len:Image.kallsyms_header_bytes in
      let o = chunk_off pa in
      (Imk_util.Byteio.get_addr v o, u32 v (o + 8))
    with Guest_mem.Fault m | Invalid_argument m ->
      panic "kallsyms at va %#x: %s" va m
  in
  if base <> Addr.kmap_base + delta then
    panic "kallsyms base %#x not relocated (expected %#x)" base
      (Addr.kmap_base + delta);
  let prev = ref (-1) in
  for k = 0 to count - 1 do
    let entry_va = va + Image.kallsyms_header_bytes + (k * Image.kallsyms_entry_bytes) in
    let pa = Boot_params.va_to_pa params entry_va in
    try
      let v = Guest_mem.view mem ~pa ~len:Image.kallsyms_entry_bytes in
      let o = chunk_off pa in
      let off = u32 v o in
      let id = u32 v (o + 4) in
      if off <= !prev then panic "kallsyms not sorted at entry %d" k;
      prev := off;
      check_fn mem params fn_va ~va:(base + off) ~expect_id:id
        ~what:"kallsyms symbol"
    with Guest_mem.Fault m -> panic "kallsyms entry at va %#x: %s" entry_va m
  done;
  count

let verify_extab mem params fn_va =
  let info = params.Boot_params.kernel in
  let va = info.Boot_params.link_extab_va + Boot_params.delta params in
  let count =
    table_count mem params ~va ~header:Image.extab_header_bytes ~what:"extab"
  in
  let prev = ref min_int in
  for k = 0 to count - 1 do
    let entry_va = va + Image.extab_header_bytes + (k * Image.extab_entry_bytes) in
    let pa = Boot_params.va_to_pa params entry_va in
    try
      let v = Guest_mem.view mem ~pa ~len:Image.extab_entry_bytes in
      let o = chunk_off pa in
      let fault_va = entry_va + s32 v o in
      let handler_va = entry_va + 4 + s32 v (o + 4) in
      let fault_fn = u32 v (o + 8) in
      let handler_fn = u32 v (o + 12) in
      let fault_off = u32 v (o + 16) in
      (* non-strict: distinct entries may share a fault address *)
      if fault_va < !prev then panic "extab not sorted at entry %d" k;
      prev := fault_va;
      check_fn mem params fn_va ~va:(fault_va - fault_off) ~expect_id:fault_fn
        ~what:"extab fault site";
      check_fn mem params fn_va ~va:handler_va ~expect_id:handler_fn
        ~what:"extab handler"
    with Guest_mem.Fault m -> panic "extab entry at va %#x: %s" entry_va m
  done;
  count

let verify_orc mem params =
  match params.Boot_params.kernel.Boot_params.link_orc_va with
  | None -> 0
  | Some link_va ->
      if not params.Boot_params.orc_fixed then 0
      else begin
        let va = link_va + Boot_params.delta params in
        let count =
          table_count mem params ~va ~header:Image.orc_header_bytes ~what:"orc"
        in
        let prev = ref min_int in
        for k = 0 to count - 1 do
          let entry_va = va + Image.orc_header_bytes + (k * Image.orc_entry_bytes) in
          let pa = Boot_params.va_to_pa params entry_va in
          let ip_disp =
            try s32 (Guest_mem.view mem ~pa ~len:Image.orc_entry_bytes) (chunk_off pa)
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

let verify_boot mem params =
  let functions_visited, sites_verified, fn_va = walk_functions mem params in
  let rodata_verified = verify_rodata mem params fn_va in
  let extab_verified = verify_extab mem params fn_va in
  let kallsyms_verified =
    if params.Boot_params.kallsyms_fixed then verify_kallsyms mem params fn_va
    else 0
  in
  let orc_verified = verify_orc mem params in
  {
    functions_visited;
    sites_verified;
    rodata_verified;
    extab_verified;
    kallsyms_verified;
    orc_verified;
  }

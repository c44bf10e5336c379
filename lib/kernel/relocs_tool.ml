open Imk_util

exception Unsupported of string

let fail msg = raise (Unsupported msg)

let walk_functions (elf : Imk_elf.Types.t) ~f =
  let visit_section (s : Imk_elf.Types.section) =
    let data = s.data in
    let n = Bytes.length data in
    let rec go off =
      if off + Function_graph.fn_header_bytes <= n then begin
        (* a magic of 2^62 or more reads as -1: magics are non-negative,
           so it matches no function *)
        let magic = try Byteio.get_addr data off with Invalid_argument _ -> -1 in
        let id = Byteio.get_u32 data (off + 8) in
        let n_sites = Byteio.get_u32 data (off + 12) in
        let size = Byteio.get_u32 data (off + 16) in
        if magic <> Function_graph.fn_magic id then
          fail (Printf.sprintf "bad function magic in %s at offset %#x" s.name off);
        if size <= 0 || off + size > n then
          fail (Printf.sprintf "function size escapes section %s" s.name);
        f ~section_va:s.addr ~fn_off:off ~id ~size ~n_sites ~data;
        go (off + size)
      end
      else if off <> n then fail ("trailing bytes in text section " ^ s.name)
    in
    go 0
  in
  let texts =
    Array.to_list elf.sections
    |> List.filter (fun (s : Imk_elf.Types.section) ->
           s.name = ".text" || Imk_elf.Types.is_function_section s)
  in
  if texts = [] then fail "no text sections";
  List.iter visit_section texts

let extract vmlinux =
  let elf =
    try Imk_elf.Parser.parse vmlinux
    with Imk_elf.Parser.Malformed m -> fail ("not a valid ELF: " ^ m)
  in
  let abs64 = ref [] and abs32 = ref [] and inv32 = ref [] in
  let note kind va =
    match kind with
    | Imk_elf.Relocation.Abs64 -> abs64 := va :: !abs64
    | Imk_elf.Relocation.Abs32 -> abs32 := va :: !abs32
    | Imk_elf.Relocation.Inv32 -> inv32 := va :: !inv32
  in
  walk_functions elf ~f:(fun ~section_va ~fn_off ~id ~size:_ ~n_sites ~data ->
      let sites = fn_off + Function_graph.fn_header_bytes in
      if sites + (n_sites * Function_graph.site_bytes) > Bytes.length data then
        fail (Printf.sprintf "%d sites of function %d read past its section" n_sites id);
      for k = 0 to n_sites - 1 do
        let sbase = sites + (k * Function_graph.site_bytes) in
        let code = Byteio.get_u8 data sbase in
        let kind =
          try Image.site_kind_of_code code
          with Invalid_argument _ ->
            fail (Printf.sprintf "bad kind code %d at site %d of function %d" code k id)
        in
        note kind (section_va + sbase + 8)
      done);
  (match Imk_elf.Types.section_by_name elf ".rodata" with
  | None -> fail "no .rodata section"
  | Some s ->
      let n = Bytes.length s.data in
      if n < Image.rodata_header_bytes then fail ".rodata is shorter than its header";
      let count = Byteio.get_u32 s.data 0 in
      if count > (n - Image.rodata_header_bytes) / Image.rodata_entry_bytes then
        fail (Printf.sprintf ".rodata count %d reads past its section" count);
      for k = 0 to count - 1 do
        note Imk_elf.Relocation.Abs64
          (s.addr + Image.rodata_header_bytes + (k * Image.rodata_entry_bytes))
      done);
  (match Imk_elf.Types.section_by_name elf ".kallsyms" with
  | None -> fail "no .kallsyms section"
  | Some s -> note Imk_elf.Relocation.Abs64 s.addr);
  let sorted l = Array.of_list (List.sort_uniq compare l) in
  { Imk_elf.Relocation.abs64 = sorted !abs64; abs32 = sorted !abs32; inv32 = sorted !inv32 }

open Imk_util

exception Malformed = Types.Malformed

let fail msg = raise (Malformed msg)

(* [off] and [len] each come from 64-bit file fields and can be as large
   as [Byteio.get_addr]'s 2^62 - 1 bound, so [off + len] can overflow
   OCaml's 63-bit int to a negative value and slip past a naive
   [off + len > length] check; compare against [length - len] instead *)
let check_bounds b off len what =
  if off < 0 || len < 0 || len > Bytes.length b || off > Bytes.length b - len
  then fail (what ^ ": out of bounds")

(* 64-bit header fields too large for a native int raise
   [Invalid_argument] inside [Byteio.get_addr]; that is malformed input,
   not a programming error *)
let wrap_byteio what f =
  try f () with Invalid_argument m -> fail (what ^ ": " ^ m)

let is_elf b =
  Bytes.length b >= 4 && Bytes.sub_string b 0 4 = Types.elf_magic

let check_ident b =
  if Bytes.length b < Types.ehdr_size then fail "truncated ELF header";
  if not (is_elf b) then fail "bad ELF magic";
  if Byteio.get_u8 b 4 <> Types.elfclass64 then fail "not ELFCLASS64";
  if Byteio.get_u8 b 5 <> Types.elfdata2lsb then fail "not little-endian"

let read_cstr b off =
  let n = Bytes.length b in
  if off < 0 || off >= n then fail "string table offset out of range";
  let rec stop i = if i >= n || Bytes.get b i = '\000' then i else stop (i + 1) in
  Bytes.sub_string b off (stop off - off)

type raw_shdr = {
  rs_name : int;
  rs_type : int;
  rs_flags : int;
  rs_addr : int;
  rs_offset : int;
  rs_size : int;
  rs_link : int;
  rs_addralign : int;
  rs_entsize : int;
}

let parse b =
  check_ident b;
  wrap_byteio "ELF image" @@ fun () ->
  let entry = Byteio.get_addr b 24 in
  let phoff = Byteio.get_addr b 32 in
  let shoff = Byteio.get_addr b 40 in
  let phnum = Byteio.get_u16 b 56 in
  let shnum = Byteio.get_u16 b 60 in
  let shstrndx = Byteio.get_u16 b 62 in
  check_bounds b phoff (phnum * Types.phdr_size) "program headers";
  check_bounds b shoff (shnum * Types.shdr_size) "section headers";
  let segments =
    Array.init phnum (fun i ->
        let base = phoff + (i * Types.phdr_size) in
        {
          Types.p_type = Byteio.get_u32 b base;
          p_flags = Byteio.get_u32 b (base + 4);
          p_offset = Byteio.get_addr b (base + 8);
          p_vaddr = Byteio.get_addr b (base + 16);
          p_paddr = Byteio.get_addr b (base + 24);
          p_filesz = Byteio.get_addr b (base + 32);
          p_memsz = Byteio.get_addr b (base + 40);
          p_align = Byteio.get_addr b (base + 48);
        })
  in
  let raw =
    Array.init shnum (fun i ->
        let base = shoff + (i * Types.shdr_size) in
        {
          rs_name = Byteio.get_u32 b base;
          rs_type = Byteio.get_u32 b (base + 4);
          rs_flags = Byteio.get_addr b (base + 8);
          rs_addr = Byteio.get_addr b (base + 16);
          rs_offset = Byteio.get_addr b (base + 24);
          rs_size = Byteio.get_addr b (base + 32);
          rs_link = Byteio.get_u32 b (base + 40);
          rs_addralign = Byteio.get_addr b (base + 48);
          rs_entsize = Byteio.get_addr b (base + 56);
        })
  in
  if shnum = 0 then fail "no sections";
  if shstrndx >= shnum then fail "shstrndx out of range";
  let shstr = raw.(shstrndx) in
  check_bounds b shstr.rs_offset shstr.rs_size "shstrtab";
  let shstrtab = Bytes.sub b shstr.rs_offset shstr.rs_size in
  let name_of rs = read_cstr shstrtab rs.rs_name in
  (* locate symtab + its strtab *)
  let symtab_ndx = ref (-1) in
  Array.iteri
    (fun i rs -> if rs.rs_type = Types.sht_symtab && !symtab_ndx = -1 then symtab_ndx := i)
    raw;
  (* user sections: every section except NULL(0), symtab, its strtab, and
     shstrtab *)
  let strtab_ndx = if !symtab_ndx >= 0 then raw.(!symtab_ndx).rs_link else -1 in
  let is_user i _rs =
    i <> 0 && i <> !symtab_ndx && i <> strtab_ndx && i <> shstrndx
  in
  let user_indices =
    Array.to_list (Array.mapi (fun i rs -> (i, rs)) raw)
    |> List.filter (fun (i, rs) -> is_user i rs)
    |> List.map fst
  in
  (* map raw index -> user index for symbol shndx translation *)
  let user_pos = Hashtbl.create 64 in
  List.iteri (fun pos i -> Hashtbl.add user_pos i pos) user_indices;
  let sections =
    Array.of_list
      (List.map
         (fun i ->
           let rs = raw.(i) in
           let data =
             if rs.rs_type = Types.sht_nobits then Bytes.create 0
             else begin
               check_bounds b rs.rs_offset rs.rs_size (name_of rs);
               Bytes.sub b rs.rs_offset rs.rs_size
             end
           in
           {
             Types.name = name_of rs;
             sh_type = rs.rs_type;
             flags = rs.rs_flags;
             addr = rs.rs_addr;
             offset = rs.rs_offset;
             size = rs.rs_size;
             addralign = rs.rs_addralign;
             entsize = rs.rs_entsize;
             data;
           })
         user_indices)
  in
  let symbols =
    if !symtab_ndx < 0 then [||]
    else begin
      let st = raw.(!symtab_ndx) in
      if strtab_ndx < 0 || strtab_ndx >= shnum then fail "symtab has no strtab";
      let strt = raw.(strtab_ndx) in
      check_bounds b st.rs_offset st.rs_size "symtab";
      check_bounds b strt.rs_offset strt.rs_size "strtab";
      let strtab = Bytes.sub b strt.rs_offset strt.rs_size in
      let count = st.rs_size / Types.sym_size in
      (* skip the mandatory null symbol at index 0 *)
      Array.init (max 0 (count - 1)) (fun k ->
          let base = st.rs_offset + ((k + 1) * Types.sym_size) in
          let st_shndx = Byteio.get_u16 b (base + 6) in
          let shndx =
            if st_shndx = 0 || st_shndx >= 0xff00 then -1
            else
              match Hashtbl.find_opt user_pos st_shndx with
              | Some pos -> pos
              | None -> -1
          in
          {
            Types.sym_name = read_cstr strtab (Byteio.get_u32 b base);
            sym_type = Byteio.get_u8 b (base + 4) land 0xf;
            shndx;
            value = Byteio.get_addr b (base + 8);
            sym_size = Byteio.get_addr b (base + 16);
          })
    end
  in
  { Types.entry; sections; segments; symbols }

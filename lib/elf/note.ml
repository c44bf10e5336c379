open Imk_util

type t = { owner : string; note_type : int; desc : bytes }

let align4 n = (n + 3) land lnot 3

let encode t =
  let namesz = String.length t.owner + 1 in
  let descsz = Bytes.length t.desc in
  let total = 12 + align4 namesz + align4 descsz in
  let out = Bytes.make total '\000' in
  Byteio.set_u32 out 0 namesz;
  Byteio.set_u32 out 4 descsz;
  Byteio.set_u32 out 8 t.note_type;
  Byteio.blit_string t.owner out 12;
  Bytes.blit t.desc 0 out (12 + align4 namesz) descsz;
  out

let malformed msg = raise (Types.Malformed msg)

let decode b =
  if Bytes.length b < 12 then malformed "Elf.Note.decode: truncated header";
  let namesz = Byteio.get_u32 b 0 in
  let descsz = Byteio.get_u32 b 4 in
  let note_type = Byteio.get_u32 b 8 in
  if namesz < 1 || 12 + align4 namesz + align4 descsz > Bytes.length b then
    malformed "Elf.Note.decode: inconsistent sizes";
  let owner = Bytes.sub_string b 12 (namesz - 1) in
  let desc = Bytes.sub b (12 + align4 namesz) descsz in
  { owner; note_type; desc }

let kaslr_owner = "IMK-KASLR"
let kaslr_note_type = 0x4b41 (* "KA" *)
let section_name = ".note.kaslr"

type kaslr_constants = {
  phys_start : int;
  phys_align : int;
  kmap_base : int;
  image_size_max : int;
}

let encode_kaslr c =
  let desc = Bytes.create 32 in
  Byteio.set_addr desc 0 c.phys_start;
  Byteio.set_addr desc 8 c.phys_align;
  Byteio.set_addr desc 16 c.kmap_base;
  Byteio.set_addr desc 24 c.image_size_max;
  { owner = kaslr_owner; note_type = kaslr_note_type; desc }

let decode_kaslr t =
  if t.owner <> kaslr_owner || t.note_type <> kaslr_note_type then
    malformed "Elf.Note.decode_kaslr: not a KASLR-constants note";
  if Bytes.length t.desc <> 32 then
    malformed "Elf.Note.decode_kaslr: bad descriptor size";
  (* a field of 2^62 or more is damage, not a caller bug *)
  let addr field off =
    try Byteio.get_addr t.desc off
    with Invalid_argument _ -> malformed (field ^ " does not fit in a native int")
  in
  let phys_start = addr "phys_start" 0 in
  let phys_align = addr "phys_align" 8 in
  let kmap_base = addr "kmap_base" 16 in
  let image_size_max = addr "image_size_max" 24 in
  { phys_start; phys_align; kmap_base; image_size_max }

open Imk_util
open Imk_memory

type protocol = Proto_linux64 | Proto_pvh

type e820_entry = { base : int; size : int; usable : bool }

let e820_of_mem ~mem_bytes =
  let low = 640 * 1024 in
  let hole_end = 1024 * 1024 in
  [
    { base = 0; size = low; usable = true };
    { base = low; size = hole_end - low; usable = false };
    { base = hole_end; size = mem_bytes - hole_end; usable = true };
  ]

type t = {
  proto : protocol;
  cmdline : string;
  e820 : e820_entry list;
  initrd : (int * int) option;
}

let zero_page_pa = 0x7000
let cmdline_pa = 0x20000
let max_cmdline = 2047
let max_e820 = 128

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let magic_of = function
  | Proto_linux64 -> 0x53726448 (* "HdrS", the Linux setup-header magic *)
  | Proto_pvh -> 0x336ec578 (* XEN_HVM_START_MAGIC_VALUE *)

let proto_of_magic m =
  if m = magic_of Proto_linux64 then Proto_linux64
  else if m = magic_of Proto_pvh then Proto_pvh
  else fail "bad boot-info magic %#x" m

(* layout at zero_page_pa:
   u32 magic | u32 cmdline_len | u64 cmdline_ptr |
   u64 initrd_addr | u64 initrd_len (0/0 = none) |
   u32 e820_count | u32 pad | e820 entries (u64 base, u64 size, u32 type, u32 pad) *)
let header_bytes = 40
let e820_entry_bytes = 24

let write mem t =
  if String.length t.cmdline > max_cmdline then fail "command line too long";
  let n = List.length t.e820 in
  if n > max_e820 then fail "too many e820 entries";
  let buf = Bytes.make (header_bytes + (n * e820_entry_bytes)) '\000' in
  Byteio.set_u32 buf 0 (magic_of t.proto);
  Byteio.set_u32 buf 4 (String.length t.cmdline);
  Byteio.set_addr buf 8 cmdline_pa;
  (match t.initrd with
  | None -> ()
  | Some (addr, len) ->
      Byteio.set_addr buf 16 addr;
      Byteio.set_addr buf 24 len);
  Byteio.set_u32 buf 32 n;
  List.iteri
    (fun i e ->
      let off = header_bytes + (i * e820_entry_bytes) in
      Byteio.set_addr buf off e.base;
      Byteio.set_addr buf (off + 8) e.size;
      Byteio.set_u32 buf (off + 16) (if e.usable then 1 else 2))
    t.e820;
  Guest_mem.write_bytes mem ~pa:zero_page_pa buf;
  let cl = Bytes.make (String.length t.cmdline + 1) '\000' in
  Byteio.blit_string t.cmdline cl 0;
  Guest_mem.write_bytes mem ~pa:cmdline_pa cl

let read mem =
  let hdr =
    try Guest_mem.read_bytes mem ~pa:zero_page_pa ~len:header_bytes
    with Guest_mem.Fault m -> fail "boot info unreadable: %s" m
  in
  let proto = proto_of_magic (Byteio.get_u32 hdr 0) in
  let cmdline_len = Byteio.get_u32 hdr 4 in
  if cmdline_len > max_cmdline then fail "implausible command-line length";
  let cmdline_ptr = Byteio.get_addr hdr 8 in
  let cmdline =
    try
      Bytes.to_string
        (Guest_mem.read_bytes mem ~pa:cmdline_ptr ~len:cmdline_len)
    with Guest_mem.Fault m -> fail "command line unreadable: %s" m
  in
  let initrd_addr = Byteio.get_addr hdr 16 in
  let initrd_len = Byteio.get_addr hdr 24 in
  let initrd =
    if initrd_len = 0 then None else Some (initrd_addr, initrd_len)
  in
  let n = Byteio.get_u32 hdr 32 in
  if n > max_e820 then fail "implausible e820 count";
  let entries =
    try
      Guest_mem.read_bytes mem
        ~pa:(zero_page_pa + header_bytes)
        ~len:(n * e820_entry_bytes)
    with Guest_mem.Fault m -> fail "e820 unreadable: %s" m
  in
  let e820 =
    List.init n (fun i ->
        let off = i * e820_entry_bytes in
        {
          base = Byteio.get_addr entries off;
          size = Byteio.get_addr entries (off + 8);
          usable = Byteio.get_u32 entries (off + 16) = 1;
        })
  in
  { proto; cmdline; e820; initrd }

let validate mem ~mem_bytes =
  let t = read mem in
  let usable_total = ref 0 in
  let prev_end = ref (-1) in
  List.iter
    (fun e ->
      if e.size <= 0 then fail "e820 entry with non-positive size";
      if e.base < !prev_end then fail "overlapping e820 entries";
      if e.base + e.size > mem_bytes then fail "e820 entry beyond guest memory";
      prev_end := e.base + e.size;
      if e.usable then usable_total := !usable_total + e.size)
    t.e820;
  if !usable_total * 10 < mem_bytes * 9 then
    fail "e820 map loses too much memory (%d of %d usable)" !usable_total
      mem_bytes;
  (match t.initrd with
  | None -> ()
  | Some (addr, len) ->
      let covered =
        List.exists
          (fun e -> e.usable && addr >= e.base && addr + len <= e.base + e.size)
          t.e820
      in
      if not covered then fail "initrd outside usable memory");
  t

let has_flag t flag =
  String.split_on_char ' ' t.cmdline |> List.exists (String.equal flag)

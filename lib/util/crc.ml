let crc_table =
  lazy
    (let t = Array.make 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 <> 0 then c := 0xedb88320 lxor (!c lsr 1)
         else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     t)

(* Slice-by-8 tables, flattened into one 8*256 array: slot [k*256 + v] is
   the CRC contribution of byte value [v] processed [k] positions before
   the end of an 8-byte group — T0 is the classic byte table, and
   T{k}[v] = T0[T{k-1}[v] & 0xff] ^ (T{k-1}[v] >> 8) extends it one zero
   byte at a time. One flat array keeps every lookup in a single cache-
   friendly block and makes the index bound obvious: k*256 + (x & 0xff)
   < 2048 for k <= 7. *)
let slice_tables =
  lazy
    (let t0 = Lazy.force crc_table in
     let t = Array.make (8 * 256) 0 in
     Array.blit t0 0 t 0 256;
     for k = 1 to 7 do
       for v = 0 to 255 do
         let prev = t.(((k - 1) * 256) + v) in
         t.((k * 256) + v) <- t0.(prev land 0xff) lxor (prev lsr 8)
       done
     done;
     t)

(* The byte-at-a-time reference: the checked loop [crc32] is pinned to by
   the qcheck differential suite, and the head/tail handler for ranges the
   word loop cannot cover. *)
let crc32_ref ?(init = 0) b off len =
  let t = Lazy.force crc_table in
  let c = ref (init lxor 0xffffffff) in
  for i = off to off + len - 1 do
    let idx = (!c lxor Char.code (Bytes.get b i)) land 0xff in
    c := t.(idx) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

external unsafe_get_64 : bytes -> int -> int64 = "%caml_bytes_get64u"

let crc32 ?(init = 0) b off len =
  if len < 8 || Sys.big_endian then crc32_ref ~init b off len
  else begin
    (* unsafe-after-validation (DESIGN.md §4.7): this single check proves
       every access below. The word loop reads 8 bytes at [i] for
       i in [off, off+len-7), so the last byte read is at most
       off+len-1 < Bytes.length b; table indices are k*256 + (byte)
       with k <= 7 and byte in [0,255], all < Array.length t = 2048. *)
    if off < 0 || len < 0 || off > Bytes.length b - len then
      invalid_arg "Crc.crc32";
    let t = Lazy.force slice_tables in
    let c = ref (init lxor 0xffffffff) in
    let i = ref off in
    let stop = off + len in
    let wstop = stop - 7 in
    while !i < wstop do
      let w = unsafe_get_64 b !i in
      (* little-endian word: the low half carries the first four message
         bytes, which absorb the current 32-bit CRC register.
         [Int64.to_int] keeps bits 0..62, so the high half comes from a
         logical shift (bit 63 matters) and the low half from a mask. *)
      let x = !c lxor (Int64.to_int w land 0xffff_ffff) in
      let hi = Int64.to_int (Int64.shift_right_logical w 32) in
      c :=
        Array.unsafe_get t ((7 * 256) + (x land 0xff))
        lxor Array.unsafe_get t ((6 * 256) + ((x lsr 8) land 0xff))
        lxor Array.unsafe_get t ((5 * 256) + ((x lsr 16) land 0xff))
        lxor Array.unsafe_get t ((4 * 256) + (x lsr 24))
        lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
        lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
        lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
        lxor Array.unsafe_get t (hi lsr 24);
      i := !i + 8
    done;
    (* tail (< 8 bytes): hand the raw register to the reference byte loop,
       undoing its entry xor so the two loops compose exactly *)
    crc32_ref ~init:(!c lxor 0xffffffff) b !i (stop - !i)
  end

let crc32_string s =
  let b = Bytes.unsafe_of_string s in
  crc32 b 0 (Bytes.length b)

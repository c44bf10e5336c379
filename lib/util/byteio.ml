let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))
let get_u16 b off = Bytes.get_uint16_le b off
let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xffff)

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get_i64 b off = Bytes.get_int64_le b off
let set_i64 b off v = Bytes.set_int64_le b off v

let get_addr b off =
  let v = Bytes.get_int64_le b off in
  if Int64.compare v 0L < 0 || Int64.compare v 0x3fff_ffff_ffff_ffffL > 0 then
    invalid_arg "Byteio.get_addr: value does not fit in a native int"
  else Int64.to_int v

let set_addr b off v =
  if v < 0 then invalid_arg "Byteio.set_addr: negative address";
  Bytes.set_int64_le b off (Int64.of_int v)

let get_u32_signed b off = Int32.to_int (Bytes.get_int32_le b off)

let blit_string s dst off = Bytes.blit_string s 0 dst off (String.length s)
let fill_zero b off len = Bytes.fill b off len '\000'

let hex_dump ?(max_bytes = 64) b =
  let n = min max_bytes (Bytes.length b) in
  let buf = Buffer.create (n * 4) in
  let rec row off =
    if off < n then begin
      Buffer.add_string buf (Printf.sprintf "%08x  " off);
      let stop = min (off + 16) n in
      for i = off to off + 15 do
        if i < stop then
          Buffer.add_string buf (Printf.sprintf "%02x " (get_u8 b i))
        else Buffer.add_string buf "   "
      done;
      Buffer.add_string buf " |";
      for i = off to stop - 1 do
        let c = Bytes.get b i in
        Buffer.add_char buf (if c >= ' ' && c <= '~' then c else '.')
      done;
      Buffer.add_string buf "|\n";
      row (off + 16)
    end
  in
  row 0;
  Buffer.contents buf

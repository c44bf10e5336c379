let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))
let get_u16 b off = Bytes.get_uint16_le b off
let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xffff)

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get_i64 b off = Bytes.get_int64_le b off

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

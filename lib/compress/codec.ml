exception Corrupt of string

type t = {
  name : string;
  compress : bytes -> bytes;
  decompress : bytes -> bytes;
  decompress_into : bytes -> dst:bytes -> dst_off:int -> int;
}

let magic = 0x494d4b43 (* "IMKC" *)
let header_len = 4 + 4 + 8 + 4

let name_hash name = Imk_util.Crc.crc32_string name

let frame ~name ~orig ~payload =
  let out = Bytes.create (header_len + Bytes.length payload) in
  Imk_util.Byteio.set_u32 out 0 magic;
  Imk_util.Byteio.set_u32 out 4 (name_hash name);
  Imk_util.Byteio.set_addr out 8 (Bytes.length orig);
  Imk_util.Byteio.set_u32 out 16 (Imk_util.Crc.crc32 orig 0 (Bytes.length orig));
  Bytes.blit payload 0 out header_len (Bytes.length payload);
  out

let max_orig_len = 1 lsl 30
(* kernels are well under 1 GiB; anything larger in a header is corruption
   and must not drive decoder allocations *)

(* the one frame parser: validates the header without touching the
   payload, which [decompress_into] decodes in place at [header_len] *)
let parse_header ~name b =
  if Bytes.length b < header_len then raise (Corrupt "frame: truncated header");
  if Imk_util.Byteio.get_u32 b 0 <> magic then raise (Corrupt "frame: bad magic");
  if Imk_util.Byteio.get_u32 b 4 <> name_hash name then
    raise (Corrupt ("frame: payload is not " ^ name));
  let orig_len =
    try Imk_util.Byteio.get_addr b 8
    with Invalid_argument _ -> raise (Corrupt "frame: implausible length")
  in
  if orig_len < 0 || orig_len > max_orig_len then
    raise (Corrupt "frame: implausible length");
  let crc = Imk_util.Byteio.get_u32 b 16 in
  (orig_len, crc)

let make ~name ~encode ~decode_into =
  let compress input = frame ~name ~orig:input ~payload:(encode input) in
  let decompress_into framed ~dst ~dst_off =
    if dst_off < 0 || dst_off > Bytes.length dst then
      invalid_arg "Codec.decompress_into: dst_off";
    let orig_len, crc = parse_header ~name framed in
    (* [orig_len] comes from the (untrusted) frame, so a window that
       does not fit is corruption, never a caller bug *)
    if orig_len > Bytes.length dst - dst_off then
      raise (Corrupt "frame: output exceeds destination");
    (* malformed payloads surface as low-level exceptions from the
       bit readers and range coders; all of them mean one thing here *)
    (try decode_into framed ~src_off:header_len ~dst ~dst_off ~orig_len with
    | Corrupt _ as e -> raise e
    | Bitio.Reader.Truncated -> raise (Corrupt (name ^ ": truncated bitstream"))
    | Invalid_argument m -> raise (Corrupt (name ^ ": malformed stream: " ^ m))
    | Failure m -> raise (Corrupt (name ^ ": malformed stream: " ^ m)));
    if Imk_util.Crc.crc32 dst dst_off orig_len <> crc then
      raise (Corrupt "frame: CRC mismatch after decompression");
    orig_len
  in
  (* every byte of the exact-size buffer is written by a successful
     decode, and a failed one never returns it *)
  let decompress framed =
    let orig_len, _ = parse_header ~name framed in
    let out = Bytes.create orig_len in
    ignore (decompress_into framed ~dst:out ~dst_off:0 : int);
    out
  in
  { name; compress; decompress; decompress_into }

open Imk_util

exception Malformed of string

type variant = Standard | None_optimized

let variant_name = function
  | Standard -> "standard"
  | None_optimized -> "none-optimized"

let of_method = function
  | "none-opt" -> ("none", None_optimized)
  | codec -> (codec, Standard)

type unpacked = { image : bytes; relocs : bytes }
type memo = unpacked option Atomic.t

type t = {
  variant : variant;
  codec : string;
  kernel_name : string;
  entry : int;
  stub : bytes;
  payload : bytes;
  vmlinux_len : int;
  relocs_len : int;
  memo : memo;
}

let stub_bytes = 64 * 1024
let header_bytes = 96
let magic = 0x425a494d (* "BZIM" *)
let align_boundary = 128 * 1024 (* MIN_KERNEL_ALIGN / default scale *)

let make_stub seed =
  (* the bootstrap loader program: deterministic semi-compressible code *)
  let rng = Imk_entropy.Prng.create ~seed in
  Bytes.init stub_bytes (fun i ->
      if i land 7 = 0 then Char.chr (Imk_entropy.Prng.next_int rng 256)
      else Char.chr ((i * 131) land 0xff))

let link (built : Image.built) ~codec ~variant =
  if variant = None_optimized && codec <> "none" then
    invalid_arg "Bzimage.link: none-optimized implies codec \"none\"";
  let codec_impl =
    match Imk_compress.Registry.find_opt codec with
    | Some c -> c
    | None -> invalid_arg ("Bzimage.link: unknown codec " ^ codec)
  in
  let raw =
    Bytes.cat built.vmlinux built.relocs_bytes
  in
  let payload = codec_impl.Imk_compress.Codec.compress raw in
  {
    variant;
    codec;
    kernel_name = built.config.Config.name;
    entry = built.elf.Imk_elf.Types.entry;
    stub = make_stub built.config.Config.seed;
    payload;
    vmlinux_len = Bytes.length built.vmlinux;
    relocs_len = Bytes.length built.relocs_bytes;
    memo = Atomic.make None;
  }

let variant_code = function Standard -> 0 | None_optimized -> 1

let variant_of_code = function
  | 0 -> Standard
  | 1 -> None_optimized
  | c -> raise (Malformed (Printf.sprintf "bad variant code %d" c))

let payload_offset_of ~variant ~stub_len =
  let base = header_bytes + stub_len in
  match variant with
  | Standard -> base
  | None_optimized -> Imk_memory.Addr.align_up base align_boundary

let payload_file_offset t =
  payload_offset_of ~variant:t.variant ~stub_len:(Bytes.length t.stub)

let encode t =
  let payload_off = payload_file_offset t in
  let total = payload_off + Bytes.length t.payload in
  let out = Bytes.make total '\000' in
  Byteio.set_u32 out 0 magic;
  Byteio.set_u32 out 4 (variant_code t.variant);
  let codec_field = Bytes.make 8 '\000' in
  Byteio.blit_string t.codec codec_field 0;
  Bytes.blit codec_field 0 out 8 8;
  Byteio.set_u32 out 16 header_bytes;
  Byteio.set_u32 out 20 (Bytes.length t.stub);
  Byteio.set_u32 out 24 payload_off;
  Byteio.set_u32 out 28 (Bytes.length t.payload);
  Byteio.set_addr out 32 t.vmlinux_len;
  Byteio.set_addr out 40 t.relocs_len;
  Byteio.set_addr out 48 t.entry;
  let name_field = Bytes.make 32 '\000' in
  Byteio.blit_string
    (String.sub t.kernel_name 0 (min 31 (String.length t.kernel_name)))
    name_field 0;
  Bytes.blit name_field 0 out 56 32;
  Bytes.blit t.stub 0 out header_bytes (Bytes.length t.stub);
  Bytes.blit t.payload 0 out payload_off (Bytes.length t.payload);
  out

let cstr b off len =
  let s = Bytes.sub_string b off len in
  match String.index_opt s '\000' with
  | Some i -> String.sub s 0 i
  | None -> s

let decode b =
  if Bytes.length b < header_bytes then raise (Malformed "truncated header");
  if Byteio.get_u32 b 0 <> magic then raise (Malformed "bad bzImage magic");
  let variant = variant_of_code (Byteio.get_u32 b 4) in
  let codec = cstr b 8 8 in
  let stub_off = Byteio.get_u32 b 16 in
  let stub_len = Byteio.get_u32 b 20 in
  let payload_off = Byteio.get_u32 b 24 in
  let payload_len = Byteio.get_u32 b 28 in
  (* a 64-bit field of 2^62 or more is damage, not a caller bug *)
  let addr field off =
    try Byteio.get_addr b off
    with Invalid_argument _ ->
      raise (Malformed (field ^ " does not fit in a native int"))
  in
  let vmlinux_len = addr "vmlinux_len" 32 in
  let relocs_len = addr "relocs_len" 40 in
  let entry = addr "entry" 48 in
  let kernel_name = cstr b 56 32 in
  if stub_off + stub_len > Bytes.length b || payload_off + payload_len > Bytes.length b
  then raise (Malformed "sections escape the image");
  {
    variant;
    codec;
    kernel_name;
    entry;
    stub = Bytes.sub b stub_off stub_len;
    payload = Bytes.sub b payload_off payload_len;
    vmlinux_len;
    relocs_len;
    memo = Atomic.make None;
  }

let unpack_payload_into t ~dst ~dst_off =
  let codec_impl = Imk_compress.Registry.find t.codec in
  let written =
    codec_impl.Imk_compress.Codec.decompress_into t.payload ~dst ~dst_off
  in
  if written <> t.vmlinux_len + t.relocs_len then
    raise (Malformed "payload length does not match header")

let unpacked t = Atomic.get t.memo

(* Write-once: only a decode that returned normally (full length,
   CRC-verified) reaches the compare-and-set, and racing first decodes of
   one record agree byte for byte, so the loser adopts the winner's
   memo. [Bytes.create] is safe uninitialized: [unpack_payload_into]
   fills all of it or raises, and a failed buffer never escapes. *)
let unpack t =
  match Atomic.get t.memo with
  | Some u -> u
  | None ->
      let image = Bytes.create (t.vmlinux_len + t.relocs_len) in
      unpack_payload_into t ~dst:image ~dst_off:0;
      let relocs =
        if t.relocs_len = 0 then Bytes.empty
        else Bytes.sub image t.vmlinux_len t.relocs_len
      in
      let u = { image; relocs } in
      if Atomic.compare_and_set t.memo None (Some u) then u
      else Option.get (Atomic.get t.memo)

exception Bad_table of string

type kind = Abs64 | Abs32 | Inv32

let kind_name = function
  | Abs64 -> "abs64"
  | Abs32 -> "abs32"
  | Inv32 -> "inv32"

type table = { abs64 : int array; abs32 : int array; inv32 : int array }

let empty = { abs64 = [||]; abs32 = [||]; inv32 = [||] }

let entry_count t =
  Array.length t.abs64 + Array.length t.abs32 + Array.length t.inv32

let iter t ~f =
  Array.iter (f Abs64) t.abs64;
  Array.iter (f Abs32) t.abs32;
  Array.iter (f Inv32) t.inv32

let strictly_increasing a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then ok := false
  done;
  !ok

let sorted_dedup_invariant t =
  strictly_increasing t.abs64 && strictly_increasing t.abs32
  && strictly_increasing t.inv32

let magic = 0x52454c4f (* "RELO" *)

let encode t =
  let n = entry_count t in
  let out = Bytes.create (16 + (n * 8)) in
  Imk_util.Byteio.set_u32 out 0 magic;
  Imk_util.Byteio.set_u32 out 4 (Array.length t.abs64);
  Imk_util.Byteio.set_u32 out 8 (Array.length t.abs32);
  Imk_util.Byteio.set_u32 out 12 (Array.length t.inv32);
  let pos = ref 16 in
  let put v =
    Imk_util.Byteio.set_addr out !pos v;
    pos := !pos + 8
  in
  Array.iter put t.abs64;
  Array.iter put t.abs32;
  Array.iter put t.inv32;
  out

let bad msg = raise (Bad_table ("Relocation.decode: " ^ msg))

let decode b =
  if Bytes.length b < 16 then bad "truncated header";
  if Imk_util.Byteio.get_u32 b 0 <> magic then bad "bad magic";
  let n64 = Imk_util.Byteio.get_u32 b 4 in
  let n32 = Imk_util.Byteio.get_u32 b 8 in
  let ninv = Imk_util.Byteio.get_u32 b 12 in
  if Bytes.length b < 16 + ((n64 + n32 + ninv) * 8) then bad "truncated entries";
  let pos = ref 16 in
  let take n =
    Array.init n (fun _ ->
        let v =
          (* a site beyond the native-int range is corruption, not a
             programming error *)
          try Imk_util.Byteio.get_addr b !pos
          with Invalid_argument m -> bad m
        in
        pos := !pos + 8;
        v)
  in
  let abs64 = take n64 in
  let abs32 = take n32 in
  let inv32 = take ninv in
  { abs64; abs32; inv32 }

let size_bytes t = 16 + (entry_count t * 8)

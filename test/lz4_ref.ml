(* Reference model of Imk_compress.Lz4's payload decoder: the closure
   version that reads every byte through [byte], the 255-run extension
   bytes through [ext] and its recursive [go], recurses once per
   sequence, and copies every match a byte at a time. The production
   decoder runs the same steps in one loop over local variables;
   test_compress's differential property pins its outcomes (bytes,
   exception and message) to this one, like Crc.crc32 to crc32_ref. *)

open Imk_compress

let min_match = 4

let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  let n = Bytes.length b in
  let pos = ref src_off in
  let byte () =
    if !pos >= n then raise (Codec.Corrupt "lz4: truncated");
    let c = Char.code (Bytes.get b !pos) in
    incr pos;
    c
  in
  let ext base =
    if base < 15 then base
    else begin
      let total = ref base in
      let rec go () =
        let c = byte () in
        total := !total + c;
        if c = 255 then go ()
      in
      go ();
      !total
    end
  in
  (* write confinement: every store below is at dst_off + w + k with
     w + k < w + len <= orig_len (checked per token), every load from
     dst is at dst_off + w + k - dist >= dst_off since dist <= w *)
  let w = ref 0 in
  let rec sequence () =
    let token = byte () in
    let lit_len = ext (token lsr 4) in
    if !w + lit_len > orig_len || !pos + lit_len > n then
      raise (Codec.Corrupt "lz4: literal run overflow");
    Bytes.blit b !pos dst (dst_off + !w) lit_len;
    pos := !pos + lit_len;
    w := !w + lit_len;
    if !pos < n then begin
      let lo = byte () in
      let hi = byte () in
      let dist = lo lor (hi lsl 8) in
      let len = ext (token land 0xf) + min_match in
      if dist = 0 || dist > !w then raise (Codec.Corrupt "lz4: bad distance");
      if !w + len > orig_len then raise (Codec.Corrupt "lz4: match overflow");
      for k = 0 to len - 1 do
        Bytes.set dst (dst_off + !w + k) (Bytes.get dst (dst_off + !w + k - dist))
      done;
      w := !w + len;
      sequence ()
    end
  in
  if orig_len > 0 || n > src_off then sequence ();
  if !w <> orig_len then raise (Codec.Corrupt "lz4: short stream")

(* the reference decoder behind the same frame parser and CRC check *)
let codec =
  Codec.make ~name:"lz4" ~encode:Lz4.encode_payload
    ~decode_into:decode_payload_into

(* Reference model of Imk_compress.Lzo's payload decoder: the token
   version that conses an [Lz77.Literal] per literal byte and an
   [Lz77.Match] per match and hands each to the sink of
   [Lz77_ref.apply_tokens_into]. The production decoder runs the same
   steps in one loop over local variables; test_compress's differential
   property pins its outcomes (bytes, exception and message) to this
   one, like Crc.crc32 to crc32_ref. *)

open Imk_compress

let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  let n = Bytes.length b in
  let pos = ref src_off in
  let byte () =
    if !pos >= n then raise (Codec.Corrupt "lzo: truncated");
    let c = Char.code (Bytes.get b !pos) in
    incr pos;
    c
  in
  Lz77_ref.apply_tokens_into ~dst ~dst_off ~orig_len (fun consume ->
      while !pos < n do
        let c = byte () in
        if c < 0x80 then
          for _ = 0 to c do
            if !pos >= n then raise (Codec.Corrupt "lzo: truncated literal run");
            consume (Lz77.Literal (Bytes.get b !pos));
            incr pos
          done
        else begin
          let len = (c land 0x7f) + 3 in
          let lo = byte () in
          let hi = byte () in
          let dist = lo lor (hi lsl 8) in
          consume (Lz77.Match { dist; len })
        end
      done)

(* the reference decoder behind the same frame parser and CRC check *)
let codec =
  Codec.make ~name:"lzo" ~encode:Lzo.encode_payload
    ~decode_into:decode_payload_into

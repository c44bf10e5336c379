(* Reference model of Imk_compress.Gzip's payload decoder: the closure
   version that reads each symbol through [Huffman.decode] (one
   [Bitio.Reader] peek/consume pair per table level, refilling a byte at
   a time) and hands every literal and copy to the [lit]/[cpy] sinks of
   [Lz77_ref.into_output] (lz77_ref.ml), which keep the write cursor in
   a ref. The
   production decoder runs the same steps in one loop over local
   variables; test_compress's differential property pins its outcomes
   (bytes, exception and message) to this one, like Crc.crc32 to
   crc32_ref. *)

open Imk_compress

(* the DEFLATE length and distance tables, as in gzip.ml *)
let length_base =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51; 59;
     67; 83; 99; 115; 131; 163; 195; 227 |]

let length_extra =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4; 4;
     5; 5; 5; 7 |]

let dist_base =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385;
     513; 769; 1025; 1537; 2049; 3073; 4097; 6145; 8193; 12289; 16385; 24577 |]

let dist_extra =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10;
     10; 11; 11; 12; 12; 13; 13 |]

let eob = 256
let n_litlen = 257 + Array.length length_base
let n_dist = Array.length dist_base

let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  let r = Bitio.Reader.create b ~pos:src_off in
  let lit_lens = Huffman.read_lengths r n_litlen in
  let dist_lens = Huffman.read_lengths r n_dist in
  let lit_dec = Huffman.decoder_of_lengths lit_lens in
  let dist_dec = Huffman.decoder_of_lengths dist_lens in
  Lz77_ref.into_output ~dst ~dst_off ~orig_len (fun ~lit ~cpy ->
      let rec go () =
        let sym = Huffman.decode lit_dec r in
        if sym < 256 then begin
          lit (Char.unsafe_chr sym);
          go ()
        end
        else if sym = eob then ()
        else begin
          let i = sym - 257 in
          if i >= Array.length length_base then
            raise (Codec.Corrupt "gzip: bad length symbol");
          let len = length_base.(i) + Bitio.Reader.get_bits r length_extra.(i) in
          let ds = Huffman.decode dist_dec r in
          let dist = dist_base.(ds) + Bitio.Reader.get_bits r dist_extra.(ds) in
          cpy ~dist ~len;
          go ()
        end
      in
      go ())

(* the reference decoder behind the same frame parser and CRC check *)
let codec =
  Codec.make ~name:"gzip" ~encode:Gzip.encode_payload
    ~decode_into:decode_payload_into

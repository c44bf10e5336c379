(* DEFLATE length codes: base lengths and extra-bit counts for symbols
   257..284 (we fold DEFLATE's special 285/len-258 case into the last
   entry's extra bits). *)
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

let find_code base extra v name =
  let n = Array.length base in
  let rec go i =
    if i + 1 >= n then i
    else if v < base.(i + 1) then i
    else go (i + 1)
  in
  let i = go 0 in
  if v < base.(i) || v - base.(i) >= 1 lsl extra.(i) then
    invalid_arg ("Gzip." ^ name ^ ": value out of range");
  (i, extra.(i), v - base.(i))

let length_code len =
  let i, bits, v = find_code length_base length_extra len "length_code" in
  (257 + i, bits, v)

let distance_code dist =
  let i, bits, v = find_code dist_base dist_extra dist "distance_code" in
  (i, bits, v)

let encode_payload input =
  (* pass 1: token list + frequency counts *)
  let tokens = ref [] in
  let lit_freq = Array.make n_litlen 0 in
  let dist_freq = Array.make n_dist 0 in
  let emit tok =
    tokens := tok :: !tokens;
    match tok with
    | Lz77.Literal c -> lit_freq.(Char.code c) <- lit_freq.(Char.code c) + 1
    | Lz77.Match { dist; len } ->
        let ls, _, _ = length_code len in
        let ds, _, _ = distance_code dist in
        lit_freq.(ls) <- lit_freq.(ls) + 1;
        dist_freq.(ds) <- dist_freq.(ds) + 1
  in
  Lz77.parse { Lz77.deflate_config with max_match = 258 } input ~f:emit;
  lit_freq.(eob) <- 1;
  let lit_lens = Huffman.lengths_of_freqs lit_freq in
  let dist_lens = Huffman.lengths_of_freqs dist_freq in
  let w = Bitio.Writer.create () in
  Huffman.write_lengths w lit_lens;
  Huffman.write_lengths w dist_lens;
  let lit_enc = Huffman.encoder_of_lengths lit_lens in
  let dist_enc = Huffman.encoder_of_lengths dist_lens in
  List.iter
    (fun tok ->
      match tok with
      | Lz77.Literal c -> Huffman.encode lit_enc w (Char.code c)
      | Lz77.Match { dist; len } ->
          let ls, lbits, lv = length_code len in
          Huffman.encode lit_enc w ls;
          if lbits > 0 then Bitio.Writer.put_bits w lv lbits;
          let ds, dbits, dv = distance_code dist in
          Huffman.encode dist_enc w ds;
          if dbits > 0 then Bitio.Writer.put_bits w dv dbits)
    (List.rev !tokens);
  Huffman.encode lit_enc w eob;
  Bitio.Writer.contents w

let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  let r = Bitio.Reader.create b ~pos:src_off in
  let lit_lens = Huffman.read_lengths r n_litlen in
  let dist_lens = Huffman.read_lengths r n_dist in
  let lit_dec = Huffman.decoder_of_lengths lit_lens in
  let dist_dec = Huffman.decoder_of_lengths dist_lens in
  Lz77.into_output ~dst ~dst_off ~orig_len (fun ~lit ~cpy ->
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

let codec =
  Codec.make ~name:"gzip" ~encode:encode_payload ~decode_into:decode_payload_into

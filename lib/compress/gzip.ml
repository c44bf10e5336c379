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

(* Every DEFLATE token reads at most 50 bits: a 15-bit length code, 7
   extra bits (the folded 285 entry), a 15-bit distance code and 13
   extra bits. *)
let token_bits = 50

(* One table lookup, [Huffman.decode] inlined on the loop's own bit
   window: the result is [(sym lsl 5) lor bits] for a code of [bits]
   bits, root and subtable bits together. The checks, their order and
   their exceptions are [Huffman.decode]'s: a 0 entry (which an empty
   table's one slot is) raises Corrupt, fewer than the claimed bits
   raises Truncated, and a link consumes the root bits before the
   subtable is read. Past the end of the stream the window is padded
   with zero bits on the right, as [Bitio.Reader.peek_bits] does. *)
let[@inline] lookup table root acc nbits =
  let k = nbits - root in
  (* index proof: the index is masked to [root] bits, and the root
     table is [1 lsl root] slots long *)
  let e =
    Array.unsafe_get table
      ((if k >= 0 then acc lsr k else acc lsl -k) land ((1 lsl root) - 1))
  in
  if e > 0 then begin
    if nbits < e land 0x1f then raise Bitio.Reader.Truncated;
    e
  end
  else if e < 0 then begin
    if k < 0 then raise Bitio.Reader.Truncated;
    let link = -e in
    let sub = link land 0x1f in
    let k2 = k - sub in
    (* index proof: a link names a subtable of [1 lsl sub] slots at
       [link lsr 5], and the index is masked to [sub] bits *)
    let e2 =
      Array.unsafe_get table
        ((link lsr 5)
        + ((if k2 >= 0 then acc lsr k2 else acc lsl -k2) land ((1 lsl sub) - 1)))
    in
    if e2 <= 0 then raise (Codec.Corrupt "huffman: invalid code");
    if k < e2 land 0x1f then raise Bitio.Reader.Truncated;
    e2 + root
  end
  else raise (Codec.Corrupt "huffman: invalid code")

(* The inflate loop: bit window, input position and write cursor live
   in locals, the window is refilled once per token, and literals and
   copies land straight in [dst]. The checks and messages are those of
   the closure decoder kept as the reference model in
   test/inflate_ref.ml, in the same order, so every
   [Codec.decompress_into] outcome matches it. *)
let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  let r = Bitio.Reader.create b ~pos:src_off in
  let lit_lens = Huffman.read_lengths r n_litlen in
  let dist_lens = Huffman.read_lengths r n_dist in
  let lit_dec = Huffman.decoder_of_lengths lit_lens in
  let dist_dec = Huffman.decoder_of_lengths dist_lens in
  (* write confinement (DESIGN.md §4.7): this check, plus the literal
     and match checks below, proves every store stays in
     [dst_off, dst_off + orig_len). The message is the reference's;
     Codec.make checks the window first, so only a direct caller can
     see it. *)
  if dst_off < 0 || orig_len < 0 || dst_off > Bytes.length dst - orig_len then
    invalid_arg "Lz77.into_output: destination range";
  let lt = Huffman.table lit_dec and lroot = Huffman.root_bits lit_dec in
  let dt = Huffman.table dist_dec and droot = Huffman.root_bits dist_dec in
  let src_len = Bytes.length b in
  let pos0, acc0, nbits0 = Bitio.Reader.window r in
  let pos = ref pos0 and acc = ref acc0 and nbits = ref nbits0 in
  let w = ref dst_off and stop = dst_off + orig_len in
  let eob_seen = ref false in
  while not !eob_seen do
    (* input proof: the loop guard bounds the read; the window holds at
       most token_bits + 7 = 57 live bits, so no shift loses one *)
    while !nbits < token_bits && !pos < src_len do
      acc := (!acc lsl 8) lor Char.code (Bytes.unsafe_get b !pos);
      incr pos;
      nbits := !nbits + 8
    done;
    let e = lookup lt lroot !acc !nbits in
    nbits := !nbits - (e land 0x1f);
    let sym = e lsr 5 in
    if sym < 256 then begin
      if !w >= stop then raise (Codec.Corrupt "lz77: literal overflow");
      (* store proof: dst_off <= w < stop *)
      Bytes.unsafe_set dst !w (Char.unsafe_chr sym);
      incr w
    end
    else if sym = eob then eob_seen := true
    else begin
      let i = sym - 257 in
      if i >= Array.length length_base then
        raise (Codec.Corrupt "gzip: bad length symbol");
      let lx = length_extra.(i) in
      if !nbits < lx then raise Bitio.Reader.Truncated;
      nbits := !nbits - lx;
      let len = length_base.(i) + ((!acc lsr !nbits) land ((1 lsl lx) - 1)) in
      let e = lookup dt droot !acc !nbits in
      nbits := !nbits - (e land 0x1f);
      let ds = e lsr 5 in
      let dx = dist_extra.(ds) in
      if !nbits < dx then raise Bitio.Reader.Truncated;
      nbits := !nbits - dx;
      let dist = dist_base.(ds) + ((!acc lsr !nbits) land ((1 lsl dx) - 1)) in
      let produced = !w - dst_off in
      if dist <= 0 || dist > produced then
        raise (Codec.Corrupt "lz77: bad distance");
      if len < 0 || !w + len > stop then
        raise (Codec.Corrupt "lz77: match overflow");
      let src = !w - dist in
      if dist >= len && len >= 32 then Bytes.blit dst src dst !w len
      else
        (* store proof: [w, w + len) lies in [dst_off, stop) by the two
           checks above, and the reads [src, src + len) start at or
           after dst_off (dist <= produced) and end before w + len. A
           forward byte loop replicates an overlapping match. *)
        for k = 0 to len - 1 do
          Bytes.unsafe_set dst (!w + k) (Bytes.unsafe_get dst (src + k))
        done;
      w := !w + len
    end
  done;
  if !w <> stop then raise (Codec.Corrupt "lz77: short token stream")

let codec =
  Codec.make ~name:"gzip" ~encode:encode_payload ~decode_into:decode_payload_into

let block_size = 128 * 1024
let runa = 0
let runb = 1
let eob = 257
let alphabet = 258

(* Zero-run length in bijective base 2 over digits {RUNA=1, RUNB=2},
   least significant digit first — the actual bzip2 scheme. *)
let emit_run out n =
  let n = ref n in
  while !n > 0 do
    if !n land 1 = 1 then begin
      out runa;
      n := (!n - 1) / 2
    end
    else begin
      out runb;
      n := (!n - 2) / 2
    end
  done

let rle2_encode mtf =
  let out = ref [] in
  let push s = out := s :: !out in
  let zeros = ref 0 in
  Array.iter
    (fun v ->
      if v = 0 then incr zeros
      else begin
        emit_run push !zeros;
        zeros := 0;
        push (v + 1)
      end)
    mtf;
  emit_run push !zeros;
  push eob;
  Array.of_list (List.rev !out)

let rle2_decode syms =
  let out = ref [] in
  let produced = ref 0 in
  let run = ref 0 and place = ref 1 in
  let emit v =
    incr produced;
    (* a corrupt stream can encode astronomically long zero runs; no
       valid block exceeds the block size *)
    if !produced > block_size then raise (Codec.Corrupt "bzip2: run overflow");
    out := v :: !out
  in
  let flush_run () =
    for _ = 1 to !run do
      emit 0
    done;
    run := 0;
    place := 1
  in
  let finished = ref false in
  Array.iter
    (fun s ->
      if !finished then ()
      else if s = runa then begin
        run := !run + !place;
        place := !place * 2;
        if !run > block_size then raise (Codec.Corrupt "bzip2: run overflow")
      end
      else if s = runb then begin
        run := !run + (2 * !place);
        place := !place * 2;
        if !run > block_size then raise (Codec.Corrupt "bzip2: run overflow")
      end
      else if s = eob then begin
        flush_run ();
        finished := true
      end
      else begin
        flush_run ();
        out := (s - 1) :: !out
      end)
    syms;
  if not !finished then raise (Codec.Corrupt "bzip2: missing end-of-block");
  Array.of_list (List.rev !out)

let encode_block w block =
  let { Bwt.last_column; primary } = Bwt.forward block in
  let syms = rle2_encode (Mtf.encode last_column) in
  let freqs = Array.make alphabet 0 in
  Array.iter (fun s -> freqs.(s) <- freqs.(s) + 1) syms;
  let lens = Huffman.lengths_of_freqs freqs in
  Bitio.Writer.put_bits w (Bytes.length block) 24;
  Bitio.Writer.put_bits w primary 24;
  Huffman.write_lengths w lens;
  let enc = Huffman.encoder_of_lengths lens in
  Array.iter (fun s -> Huffman.encode enc w s) syms

let decode_block r =
  let len = Bitio.Reader.get_bits r 24 in
  let primary = Bitio.Reader.get_bits r 24 in
  let lens = Huffman.read_lengths r alphabet in
  let dec = Huffman.decoder_of_lengths lens in
  let syms = ref [] in
  let rec read () =
    let s = Huffman.decode dec r in
    syms := s :: !syms;
    if s <> eob then read ()
  in
  read ();
  let mtf = rle2_decode (Array.of_list (List.rev !syms)) in
  if Array.length mtf <> len then raise (Codec.Corrupt "bzip2: block length mismatch");
  let block = Bwt.inverse { Bwt.last_column = Mtf.decode mtf; primary } in
  if Bytes.length block <> len then raise (Codec.Corrupt "bzip2: inverse BWT length");
  block

let encode_payload input =
  let n = Bytes.length input in
  let w = Bitio.Writer.create () in
  let nblocks = if n = 0 then 0 else ((n - 1) / block_size) + 1 in
  Bitio.Writer.put_bits w nblocks 16;
  for b = 0 to nblocks - 1 do
    let off = b * block_size in
    let len = min block_size (n - off) in
    encode_block w (Bytes.sub input off len)
  done;
  Bitio.Writer.contents w

let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  let r = Bitio.Reader.create b ~pos:src_off in
  let nblocks = Bitio.Reader.get_bits r 16 in
  let w = ref 0 in
  for _ = 1 to nblocks do
    let block = decode_block r in
    let len = Bytes.length block in
    if !w + len > orig_len then
      raise (Codec.Corrupt "bzip2: stream length mismatch");
    Bytes.blit block 0 dst (dst_off + !w) len;
    w := !w + len
  done;
  if !w <> orig_len then raise (Codec.Corrupt "bzip2: stream length mismatch")

let codec =
  Codec.make ~name:"bzip2" ~encode:encode_payload ~decode_into:decode_payload_into

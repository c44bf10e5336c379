(* Tests for Imk_compress: format-level units for each codec stage and
   round-trip properties for every registered codec on adversarial inputs. *)

open Imk_compress

let check = Alcotest.check
let int = Alcotest.int

let bytes_testable =
  Alcotest.testable
    (fun ppf b -> Format.fprintf ppf "%S" (Bytes.to_string b))
    Bytes.equal

(* deterministic sample inputs covering the codec edge cases *)
let samples =
  [
    ("empty", Bytes.create 0);
    ("one byte", Bytes.of_string "x");
    ("all zeros", Bytes.make 4096 '\000');
    ("all same", Bytes.make 1000 'a');
    ("short text", Bytes.of_string "the quick brown fox jumps over the lazy dog");
    ( "repetitive",
      Bytes.of_string (String.concat "" (List.init 200 (fun _ -> "abcdefgh"))) );
    ( "incompressible",
      let rng = Imk_entropy.Prng.create ~seed:99L in
      Bytes.init 8192 (fun _ -> Char.chr (Imk_entropy.Prng.next_int rng 256)) );
    ( "kernel-ish",
      (* mix of repeated opcode-like patterns and embedded addresses *)
      let rng = Imk_entropy.Prng.create ~seed:7L in
      let b = Bytes.create 32768 in
      for i = 0 to (Bytes.length b / 16) - 1 do
        let pat = Imk_entropy.Prng.next_int rng 4 in
        for j = 0 to 15 do
          Bytes.set b ((i * 16) + j)
            (Char.chr ((pat * 16) + (j land 7) + if j = 15 then Imk_entropy.Prng.next_int rng 16 else 0))
        done
      done;
      b );
  ]

let roundtrip_case codec (label, input) () =
  let compressed = codec.Codec.compress input in
  let out = codec.Codec.decompress compressed in
  check bytes_testable (codec.Codec.name ^ " roundtrip " ^ label) input out

let roundtrip_tests codec =
  List.map
    (fun ((label, _) as sample) ->
      Alcotest.test_case (codec.Codec.name ^ "/" ^ label) `Quick
        (roundtrip_case codec sample))
    samples

let test_frame_rejects_wrong_codec () =
  let data = Bytes.of_string "hello hello hello hello" in
  let compressed = Lz4.codec.Codec.compress data in
  Alcotest.check_raises "codec mismatch"
    (Codec.Corrupt "frame: payload is not gzip") (fun () ->
      ignore (Gzip.codec.Codec.decompress compressed))

let test_frame_rejects_truncated () =
  Alcotest.check_raises "truncated" (Codec.Corrupt "frame: truncated header")
    (fun () -> ignore (Lz4.codec.Codec.decompress (Bytes.create 3)))

let test_frame_detects_corruption () =
  let data = Bytes.of_string (String.concat "-" (List.init 64 string_of_int)) in
  let compressed = Store.codec.Codec.compress data in
  (* flip a payload byte past the header *)
  let i = Bytes.length compressed - 1 in
  Bytes.set compressed i (Char.chr (Char.code (Bytes.get compressed i) lxor 1));
  check Alcotest.bool "corrupt raises" true
    (try
       ignore (Store.codec.Codec.decompress compressed);
       false
     with Codec.Corrupt _ -> true)

let test_registry_contents () =
  check int "seven codecs" 7 (List.length Registry.all);
  check int "six bakeoff codecs" 6 (List.length Registry.bakeoff_codecs);
  check Alcotest.string "find lz4" "lz4" (Registry.find "lz4").Codec.name;
  check Alcotest.bool "unknown" true (Registry.find_opt "zip" = None)

let test_compression_actually_compresses () =
  (* on a repetitive input every real codec must beat store *)
  let input = Bytes.make 65536 'k' in
  List.iter
    (fun codec ->
      let ratio =
        float_of_int (Bytes.length input)
        /. float_of_int (Bytes.length (codec.Codec.compress input))
      in
      check Alcotest.bool (codec.Codec.name ^ " compresses") true (ratio > 4.))
    Registry.bakeoff_codecs

let test_ratio_ordering_on_kernel_like_data () =
  (* lzma/xz should beat gzip, gzip should beat lzo on structured data —
     the ratio ordering behind Table 1 *)
  let rng = Imk_entropy.Prng.create ~seed:123L in
  let b = Bytes.create 262144 in
  for i = 0 to (Bytes.length b / 8) - 1 do
    let v = Imk_entropy.Prng.next_int rng 64 in
    for j = 0 to 7 do
      Bytes.set b ((i * 8) + j) (Char.chr ((v + (j * 3)) land 0xff))
    done
  done;
  let size name = Bytes.length ((Registry.find name).Codec.compress b) in
  check Alcotest.bool "lzma <= gzip" true (size "lzma" <= size "gzip");
  check Alcotest.bool "gzip <= lzo" true (size "gzip" <= size "lzo")

(* --- bit I/O --- *)

let test_bitio_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.put_bits w 0b101 3;
  Bitio.Writer.put_bits w 0xbeef 16;
  Bitio.Writer.put_bit w 1;
  let data = Bitio.Writer.contents w in
  let r = Bitio.Reader.create data ~pos:0 in
  check int "3 bits" 0b101 (Bitio.Reader.get_bits r 3);
  check int "16 bits" 0xbeef (Bitio.Reader.get_bits r 16);
  check int "1 bit" 1 (Bitio.Reader.get_bit r)

let test_bitio_align () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.put_bits w 1 1;
  Bitio.Writer.align_byte w;
  Bitio.Writer.put_bits w 0xff 8;
  let data = Bitio.Writer.contents w in
  check int "two bytes" 2 (Bytes.length data);
  let r = Bitio.Reader.create data ~pos:0 in
  check int "first" 1 (Bitio.Reader.get_bit r);
  Bitio.Reader.align_byte r;
  check int "second byte" 0xff (Bitio.Reader.get_bits r 8)

let test_bitio_truncated () =
  let r = Bitio.Reader.create (Bytes.create 0) ~pos:0 in
  check Alcotest.bool "raises" true
    (try
       ignore (Bitio.Reader.get_bit r);
       false
     with Bitio.Reader.Truncated -> true)

(* --- Huffman --- *)

let test_huffman_roundtrip () =
  let freqs = [| 45; 13; 12; 16; 9; 5; 0; 1 |] in
  let lens = Huffman.lengths_of_freqs freqs in
  check int "zero freq no code" 0 lens.(6);
  check Alcotest.bool "kraft valid" true (Huffman.kraft_sum_valid lens);
  let enc = Huffman.encoder_of_lengths lens in
  let dec = Huffman.decoder_of_lengths lens in
  let syms = [ 0; 1; 2; 3; 4; 5; 7; 0; 0; 4 ] in
  let w = Bitio.Writer.create () in
  List.iter (fun s -> Huffman.encode enc w s) syms;
  let r = Bitio.Reader.create (Bitio.Writer.contents w) ~pos:0 in
  List.iter (fun s -> check int "sym" s (Huffman.decode dec r)) syms

let test_huffman_single_symbol () =
  let lens = Huffman.lengths_of_freqs [| 0; 10; 0 |] in
  check int "single symbol gets len 1" 1 lens.(1)

let test_huffman_max_len_respected () =
  (* fibonacci-ish frequencies force deep trees; max_len must clamp *)
  let freqs = Array.init 40 (fun i ->
      let rec fib n = if n < 2 then 1 else fib (n - 1) + fib (n - 2) in
      fib (min i 25)) in
  let lens = Huffman.lengths_of_freqs ~max_len:15 freqs in
  Array.iter (fun l -> check Alcotest.bool "<=15" true (l <= 15)) lens;
  check Alcotest.bool "kraft valid" true (Huffman.kraft_sum_valid lens)

let test_huffman_lengths_table_io () =
  let lens = [| 3; 0; 2; 15; 1 |] in
  let w = Bitio.Writer.create () in
  Huffman.write_lengths w lens;
  let r = Bitio.Reader.create (Bitio.Writer.contents w) ~pos:0 in
  let back = Huffman.read_lengths r 5 in
  Alcotest.(check (array int)) "lengths" lens back

(* --- BWT / MTF / RLE2 --- *)

let test_bwt_known () =
  (* banana: a classic *)
  let t = Bwt.forward (Bytes.of_string "banana") in
  let back = Bwt.inverse t in
  check bytes_testable "banana" (Bytes.of_string "banana") back

let test_bwt_empty () =
  let t = Bwt.forward (Bytes.create 0) in
  check int "empty last column" 0 (Bytes.length t.Bwt.last_column);
  check bytes_testable "empty" (Bytes.create 0) (Bwt.inverse t)

let test_suffix_array_sorted () =
  let b = Bytes.of_string "mississippi" in
  let sa = Bwt.suffix_array b in
  let n = Bytes.length b + 1 in
  check int "length" n (Array.length sa);
  let suffix i =
    Bytes.sub_string b i (Bytes.length b - i) ^ "\000" (* sentinel proxy *)
  in
  for i = 0 to n - 2 do
    let a = if sa.(i) = n - 1 then "" else suffix sa.(i) in
    let c = if sa.(i + 1) = n - 1 then "" else suffix sa.(i + 1) in
    check Alcotest.bool "sorted" true (a < c || a = "")
  done

let test_mtf_roundtrip () =
  let input = Bytes.of_string "aaabbbcccabc\000\255" in
  let enc = Mtf.encode input in
  check bytes_testable "mtf" input (Mtf.decode enc);
  (* runs become zeros after the first occurrence *)
  check int "second a" 0 enc.(1)

let test_rle2_roundtrip () =
  let cases =
    [ [||]; [| 0 |]; [| 0; 0; 0; 0 |]; [| 5; 0; 0; 3 |]; Array.make 100 0;
      Array.init 50 (fun i -> i mod 7) ]
  in
  List.iter
    (fun mtf ->
      let syms = Bzip2.rle2_encode mtf in
      Alcotest.(check (array int)) "rle2" mtf (Bzip2.rle2_decode syms))
    cases

(* --- LZ4/LZO format details --- *)

let test_lz4_long_runs () =
  (* literal runs and match lengths beyond the 15-escape *)
  let rng = Imk_entropy.Prng.create ~seed:5L in
  let incompressible =
    Bytes.init 400 (fun _ -> Char.chr (Imk_entropy.Prng.next_int rng 256))
  in
  let long_match = Bytes.make 1000 'z' in
  let input = Bytes.cat incompressible long_match in
  let out = Bytes.make (Bytes.length input) '\000' in
  Lz4.decode_payload_into (Lz4.encode_payload input) ~src_off:0 ~dst:out
    ~dst_off:0 ~orig_len:(Bytes.length input);
  check bytes_testable "long runs" input out

let test_lz4_corrupt_rejected () =
  check Alcotest.bool "corrupt raises" true
    (try
       Lz4.decode_payload_into (Bytes.of_string "\xff\xff\xff") ~src_off:0
         ~dst:(Bytes.make 10 '\000') ~dst_off:0 ~orig_len:10;
       false
     with Codec.Corrupt _ -> true)

let test_gzip_code_tables () =
  let sym, bits, extra = Gzip.length_code 3 in
  check int "len 3 sym" 257 sym;
  check int "len 3 bits" 0 bits;
  check int "len 3 extra" 0 extra;
  let sym, _, _ = Gzip.length_code 258 in
  check int "len 258 sym" 284 sym;
  let sym, bits, extra = Gzip.distance_code 1 in
  check int "dist 1" 0 sym;
  check int "dist 1 bits" 0 bits;
  check int "dist 1 extra" 0 extra;
  let sym, _, _ = Gzip.distance_code 32768 in
  check int "dist max sym" 29 sym

(* --- range coder --- *)

let test_range_coder_bits () =
  let e = Range_coder.Encoder.create () in
  let probs = Range_coder.make_probs 1 in
  let bits = List.init 500 (fun i -> if i mod 7 = 0 then 1 else 0) in
  List.iter (fun b -> Range_coder.Encoder.encode_bit e probs 0 b) bits;
  let data = Range_coder.Encoder.finish e in
  let probs' = Range_coder.make_probs 1 in
  let d = Range_coder.Decoder.create data ~pos:0 in
  List.iter
    (fun b -> check int "bit" b (Range_coder.Decoder.decode_bit d probs' 0))
    bits

let test_range_coder_direct_and_tree () =
  let e = Range_coder.Encoder.create () in
  let tree = Range_coder.make_probs 256 in
  Range_coder.Encoder.encode_direct e 0xabc 12;
  Range_coder.Encoder.encode_tree e tree 0x5a 8;
  Range_coder.Encoder.encode_direct e 0 1;
  let data = Range_coder.Encoder.finish e in
  let tree' = Range_coder.make_probs 256 in
  let d = Range_coder.Decoder.create data ~pos:0 in
  check int "direct" 0xabc (Range_coder.Decoder.decode_direct d 12);
  check int "tree" 0x5a (Range_coder.Decoder.decode_tree d tree' 8);
  check int "direct single" 0 (Range_coder.Decoder.decode_direct d 1)

let test_range_coder_skewed_compresses () =
  (* heavily skewed bit streams should code well below 1 bit per symbol *)
  let e = Range_coder.Encoder.create () in
  let probs = Range_coder.make_probs 1 in
  for i = 1 to 10_000 do
    Range_coder.Encoder.encode_bit e probs 0 (if i mod 100 = 0 then 1 else 0)
  done;
  let data = Range_coder.Encoder.finish e in
  check Alcotest.bool "well under 1250 bytes" true (Bytes.length data < 400)

(* a frame whose length field claims far more output than its payload
   holds: the range decoder runs out of input long before the claimed
   length and must fail there, not decode 4 MiB from a zero tail and
   fail only at the CRC *)
let test_range_coder_overlong_claim () =
  let input = Bytes.init 300 (fun i -> Char.chr ((i * 37) land 0x3f)) in
  List.iter
    (fun codec ->
      let framed = codec.Codec.compress input in
      let claim = 4 * 1024 * 1024 in
      Imk_util.Byteio.set_addr framed 8 claim;
      Alcotest.check_raises (codec.Codec.name ^ " overlong claim")
        (Codec.Corrupt "range: truncated stream") (fun () ->
          ignore
            (codec.Codec.decompress_into framed ~dst:(Bytes.make claim '\000')
               ~dst_off:0)))
    [ Lzma.codec; Xz.codec ]

(* --- qcheck round-trip properties for all codecs --- *)

let arbitrary_input =
  QCheck.(
    map
      (fun (mode, s, n) ->
        match mode mod 3 with
        | 0 -> Bytes.of_string s
        | 1 -> Bytes.make (n mod 2048) 'r'
        | _ ->
            let rng = Imk_entropy.Prng.create ~seed:(Int64.of_int n) in
            Bytes.init (n mod 4096) (fun _ ->
                Char.chr (Imk_entropy.Prng.next_int rng 256)))
      (triple small_nat (string_of_size Gen.(0 -- 2048)) small_nat))

let qcheck_roundtrip codec =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: decompress ∘ compress = id" codec.Codec.name)
    ~count:60 arbitrary_input
    (fun input -> Bytes.equal input (codec.Codec.decompress (codec.Codec.compress input)))

let qcheck_bwt_roundtrip =
  QCheck.Test.make ~name:"bwt: inverse ∘ forward = id" ~count:100
    QCheck.(string_of_size Gen.(0 -- 512))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Bwt.inverse (Bwt.forward b)))

let qcheck_mtf_roundtrip =
  QCheck.Test.make ~name:"mtf: decode ∘ encode = id" ~count:100
    QCheck.(string_of_size Gen.(0 -- 512))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Mtf.decode (Mtf.encode b)))

(* mutation oracle: flipping any byte of a compressed frame must either
   be detected (Corrupt) or be harmless (decode to the original) — a
   silently different output would mean the CRC failed its one job *)
let qcheck_mutation codec =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: mutations detected or harmless" codec.Codec.name)
    ~count:40
    QCheck.(triple (string_of_size Gen.(1 -- 512)) small_nat small_nat)
    (fun (s, pos, delta) ->
      let input = Bytes.of_string s in
      let compressed = codec.Codec.compress input in
      let i = pos mod Bytes.length compressed in
      Bytes.set compressed i
        (Char.chr (Char.code (Bytes.get compressed i) lxor (1 + (delta mod 255))));
      match codec.Codec.decompress compressed with
      | out -> Bytes.equal out input
      | exception Codec.Corrupt _ -> true)

(* truncation oracle: every prefix of a frame must fail cleanly *)
let qcheck_truncation codec =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: truncations fail cleanly" codec.Codec.name)
    ~count:40
    QCheck.(pair (string_of_size Gen.(1 -- 256)) small_nat)
    (fun (s, cut) ->
      let input = Bytes.of_string s in
      let compressed = codec.Codec.compress input in
      let n = Bytes.length compressed in
      let keep = cut mod n in
      match codec.Codec.decompress (Bytes.sub compressed 0 keep) with
      | out -> Bytes.equal out input (* only possible if nothing was lost *)
      | exception Codec.Corrupt _ -> true)

(* sink oracle: decompress_into restores the original input
   byte-for-byte (the allocating [decompress] runs the same code, so the
   input is the independent side), and never writes outside the
   validated destination window — sentinel bytes on both sides must
   survive the decode *)
let qcheck_into_equiv codec =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: decompress_into ≡ decompress" codec.Codec.name)
    ~count:60
    QCheck.(pair arbitrary_input small_nat)
    (fun (input, off0) ->
      let compressed = codec.Codec.compress input in
      let dst_off = off0 mod 64 in
      let dst = Bytes.make (dst_off + Bytes.length input + 64) '\xab' in
      let n = codec.Codec.decompress_into compressed ~dst ~dst_off in
      let confined = ref true in
      for i = 0 to dst_off - 1 do
        if Bytes.get dst i <> '\xab' then confined := false
      done;
      for i = dst_off + n to Bytes.length dst - 1 do
        if Bytes.get dst i <> '\xab' then confined := false
      done;
      n = Bytes.length input
      && Bytes.equal input (Bytes.sub dst dst_off n)
      && !confined)

(* corrupt sinks fail typed: any mutation or truncation of the frame
   either decodes to the original or raises Corrupt — never
   Invalid_argument (qcheck reports any other exception as a failure) —
   and never writes below the destination offset. The destination is
   sized exactly to the true output so an inflated length field is
   rejected before a single byte lands. *)
let qcheck_into_corrupt codec =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: corrupt sink decodes fail typed, confined"
         codec.Codec.name)
    ~count:60
    QCheck.(
      quad (string_of_size Gen.(1 -- 512)) small_nat small_nat bool)
    (fun (s, pos, delta, truncate) ->
      let input = Bytes.of_string s in
      let compressed = codec.Codec.compress input in
      let frame =
        if truncate then
          Bytes.sub compressed 0 (pos mod Bytes.length compressed)
        else begin
          let b = Bytes.copy compressed in
          let i = pos mod Bytes.length b in
          Bytes.set b i
            (Char.chr
               (Char.code (Bytes.get b i) lxor (1 + (delta mod 255))));
          b
        end
      in
      let dst_off = 32 in
      let dst = Bytes.make (dst_off + Bytes.length input) '\xab' in
      let prefix_confined () =
        let ok = ref true in
        for i = 0 to dst_off - 1 do
          if Bytes.get dst i <> '\xab' then ok := false
        done;
        !ok
      in
      match codec.Codec.decompress_into frame ~dst ~dst_off with
      | n ->
          prefix_confined () && n = Bytes.length input
          && Bytes.equal input (Bytes.sub dst dst_off n)
      | exception Codec.Corrupt _ -> prefix_confined ())

let test_into_rejects_bad_destination () =
  let codec = Registry.find "none" in
  let frame = codec.Codec.compress (Bytes.of_string "payload") in
  (* caller bugs are Invalid_argument (programming error), not Corrupt *)
  check Alcotest.bool "negative offset" true
    (match codec.Codec.decompress_into frame ~dst:(Bytes.make 64 ' ') ~dst_off:(-1) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* an untrusted length that overflows the destination is the frame's
     fault, so it classifies as Corrupt *)
  check Alcotest.bool "output exceeds destination" true
    (match codec.Codec.decompress_into frame ~dst:(Bytes.make 3 ' ') ~dst_off:0 with
    | _ -> false
    | exception Codec.Corrupt _ -> true)

let qcheck_huffman_kraft =
  QCheck.Test.make ~name:"huffman lengths always satisfy kraft" ~count:200
    QCheck.(list_of_size Gen.(1 -- 64) (int_bound 10_000))
    (fun freqs ->
      let lens = Huffman.lengths_of_freqs (Array.of_list freqs) in
      Huffman.kraft_sum_valid lens)

(* --- table-driven vs bit-serial Huffman decoder equivalence --- *)

let test_bitio_peek_consume () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.put_bits w 0b1011 4;
  Bitio.Writer.put_bits w 0xcafe 16;
  let data = Bitio.Writer.contents w in
  let r = Bitio.Reader.create data ~pos:0 in
  check int "peek does not consume" 0b1011 (Bitio.Reader.peek_bits r 4);
  check int "peek again" 0b1011 (Bitio.Reader.peek_bits r 4);
  Bitio.Reader.consume r 4;
  check int "after consume" 0xcafe (Bitio.Reader.peek_bits r 16);
  Bitio.Reader.consume r 16;
  (* 4 padding bits remain in the final byte; past them peek pads with
     zeros but consume must refuse to claim the padding *)
  check int "peek pads past end" 0 (Bitio.Reader.peek_bits r 12);
  check Alcotest.bool "consume past end raises" true
    (try
       Bitio.Reader.consume r 12;
       false
     with Bitio.Reader.Truncated -> true)

let qcheck_bitio_roundtrip =
  QCheck.Test.make ~name:"bitio: batched writer/reader roundtrip" ~count:200
    QCheck.(list_of_size Gen.(0 -- 200) (pair small_nat (int_range 0 24)))
    (fun chunks ->
      let w = Bitio.Writer.create () in
      List.iter (fun (v, n) -> Bitio.Writer.put_bits w v n) chunks;
      let r = Bitio.Reader.create (Bitio.Writer.contents w) ~pos:0 in
      List.for_all
        (fun (v, n) -> Bitio.Reader.get_bits r n = v land ((1 lsl n) - 1))
        chunks)

(* random decodable length sets, biased to include deep (> 9-bit) codes
   so the subtable path is exercised *)
let arb_huffman_lens =
  QCheck.map
    (fun freqs ->
      Huffman.lengths_of_freqs
        (Array.of_list (List.map (fun f -> 1 + (f * f)) freqs)))
    QCheck.(list_of_size Gen.(2 -- 64) (int_bound 40))

let coded_symbols lens =
  let out = ref [] in
  Array.iteri (fun i l -> if l > 0 then out := i :: !out) lens;
  Array.of_list !out

(* decode a fixed number of symbols, tagging how the stream ends *)
let decode_outcome decode_fn dec data limit =
  let r = Bitio.Reader.create data ~pos:0 in
  let syms = ref [] in
  let tag = ref `Ok in
  (try
     for _ = 1 to limit do
       syms := decode_fn dec r :: !syms
     done
   with
  | Codec.Corrupt _ -> tag := `Corrupt
  | Bitio.Reader.Truncated -> tag := `Truncated
  | Invalid_argument m -> tag := `Invalid m);
  (List.rev !syms, !tag)

let qcheck_huffman_table_equiv_valid_streams =
  (* on well-formed streams the table decoder must reproduce the encoded
     symbols and leave the reader at the same bit position as the
     bit-serial reference decoder (checked by draining both readers) *)
  QCheck.Test.make
    ~name:"huffman: table decode = bit-serial decode on valid streams"
    ~count:300
    QCheck.(
      triple arb_huffman_lens
        (list_of_size Gen.(0 -- 100) small_nat)
        (pair small_nat (int_range 0 16)))
    (fun (lens, picks, (trail, trail_bits)) ->
      let coded = coded_symbols lens in
      if Array.length coded = 0 then true
      else begin
        let syms =
          List.map (fun p -> coded.(p mod Array.length coded)) picks
        in
        let enc = Huffman.encoder_of_lengths lens in
        let w = Bitio.Writer.create () in
        List.iter (fun s -> Huffman.encode enc w s) syms;
        Bitio.Writer.put_bits w trail trail_bits;
        let data = Bitio.Writer.contents w in
        let dec = Huffman.decoder_of_lengths lens in
        let drain r =
          let bits = ref [] in
          (try
             while true do
               bits := Bitio.Reader.get_bit r :: !bits
             done
           with Bitio.Reader.Truncated -> ());
          List.rev !bits
        in
        let run decode_fn =
          let r = Bitio.Reader.create data ~pos:0 in
          let out = List.map (fun _ -> decode_fn dec r) syms in
          (out, drain r)
        in
        let table_syms, table_rest = run Huffman.decode in
        let ref_syms, ref_rest = run Huffman.decode_ref in
        table_syms = syms && ref_syms = syms && table_rest = ref_rest
      end)

let qcheck_huffman_table_equiv_random_streams =
  (* on arbitrary bitstreams both decoders must agree symbol for symbol
     and fail at the same point; the exception may differ only at
     end-of-stream, where the table can prove Corrupt while the
     bit-serial walk runs out of bits first (Truncated) — and neither
     may ever leak Invalid_argument from the unsafe table lookups *)
  QCheck.Test.make
    ~name:"huffman: table decode = bit-serial decode on random streams"
    ~count:300
    QCheck.(pair arb_huffman_lens (string_of_size Gen.(0 -- 64)))
    (fun (lens, blob) ->
      let dec = Huffman.decoder_of_lengths lens in
      let data = Bytes.of_string blob in
      let table_syms, table_tag = decode_outcome Huffman.decode dec data 600 in
      let ref_syms, ref_tag = decode_outcome Huffman.decode_ref dec data 600 in
      let clean = function
        | `Ok | `Corrupt | `Truncated -> true
        | `Invalid _ -> false
      in
      table_syms = ref_syms && clean table_tag && clean ref_tag
      && (table_tag = ref_tag
         || (table_tag = `Corrupt && ref_tag = `Truncated)))

let test_huffman_rejects_oversubscribed () =
  Alcotest.check_raises "kraft violation"
    (Codec.Corrupt "huffman: over-subscribed code lengths") (fun () ->
      ignore (Huffman.decoder_of_lengths [| 1; 1; 1 |]))

let test_huffman_rejects_out_of_range_length () =
  Alcotest.check_raises "length 16"
    (Codec.Corrupt "huffman: code length out of range") (fun () ->
      ignore (Huffman.decoder_of_lengths [| 16 |]))

let test_huffman_table_deep_codes () =
  (* skewed frequencies force codes past the 9-bit root so both the root
     and subtable paths run; roundtrip through both decoders *)
  let freqs = Array.init 40 (fun i ->
      let rec fib n = if n < 2 then 1 else fib (n - 1) + fib (n - 2) in
      fib (min i 25)) in
  let lens = Huffman.lengths_of_freqs ~max_len:15 freqs in
  check Alcotest.bool "has a deep code" true
    (Array.exists (fun l -> l > 9) lens);
  let enc = Huffman.encoder_of_lengths lens in
  let dec = Huffman.decoder_of_lengths lens in
  let syms = List.init 200 (fun i -> i mod 40) in
  let w = Bitio.Writer.create () in
  List.iter (fun s -> Huffman.encode enc w s) syms;
  let data = Bitio.Writer.contents w in
  let r = Bitio.Reader.create data ~pos:0 in
  List.iter (fun s -> check int "table" s (Huffman.decode dec r)) syms;
  let r = Bitio.Reader.create data ~pos:0 in
  List.iter (fun s -> check int "reference" s (Huffman.decode_ref dec r)) syms

(* --- fused inflate loop vs the closure reference (test/inflate_ref.ml) --- *)

(* [n] bytes from a geometric distribution: byte [7k] with probability
   2^-(k+1), so the rare bytes get literal codes longer than the 9-bit
   root and decode through the subtable links *)
let skewed_bytes seed n =
  let rng = Imk_entropy.Prng.create ~seed in
  Bytes.init n (fun _ ->
      let v = Imk_entropy.Prng.next_int rng (1 lsl 20) in
      let k = ref 0 in
      while !k < 20 && v land (1 lsl !k) = 0 do
        incr k
      done;
      Char.chr (7 * !k))

(* [n] bytes repeating a pattern of [1 + seed mod 4] bytes ("aaaa…",
   "abab…", …): long runs of overlapping matches at distances 1 to 4 *)
let periodic_bytes seed n =
  let period = 1 + (seed mod 4) in
  Bytes.init n (fun i -> Char.chr (Char.code 'a' + (i mod period)))

(* a decode's whole observable outcome: the result or the exception with
   its message, and every byte of the destination (the window and the
   sentinels around it) *)
let decode_outcome codec frame ~dst_off ~dst_len =
  let dst = Bytes.make dst_len '\xab' in
  let result =
    match codec.Codec.decompress_into frame ~dst ~dst_off with
    | n -> Ok n
    | exception e -> Error (Printexc.to_string e)
  in
  (result, Bytes.to_string dst)

(* [fused] and its closure [reference] agree on every outcome: on valid
   frames, on frames with 1-4 bytes flipped, on truncated frames, and
   on frames cut by 0-3 bytes whose header claims 0-3 bytes less output
   (which makes a final literal run run out of input and of output at
   the same byte), over plain, geometric-skewed, periodic and all-zero
   inputs, at any destination offset *)
let qcheck_fused_equiv ~name fused reference =
  QCheck.Test.make ~name ~count:300
    QCheck.(
      quad
        (pair arbitrary_input (pair (int_bound 3) small_nat))
        (int_bound 3)
        (list_of_size Gen.(1 -- 4) (pair (int_bound (1 lsl 20)) small_nat))
        (pair (int_bound 63) (int_bound (1 lsl 20))))
    (fun ((input, (shape, seed)), mode, mutations, (dst_off, cut)) ->
      let n = Bytes.length input in
      let input =
        match shape with
        | 0 -> input
        | 1 -> skewed_bytes (Int64.of_int seed) n
        | 2 -> periodic_bytes seed n
        | _ -> Bytes.make n '\000'
      in
      let valid = fused.Codec.compress input in
      let len = Bytes.length valid in
      let frame =
        match mode with
        | 0 -> valid
        | 1 ->
            let b = Bytes.copy valid in
            List.iter
              (fun (pos, delta) ->
                let i = pos mod len in
                Bytes.set b i
                  (Char.chr (Char.code (Bytes.get b i) lxor (1 + (delta mod 255)))))
              mutations;
            b
        | 2 -> Bytes.sub valid 0 (cut mod len)
        | _ ->
            (* a frame is a 20-byte header and the payload, so the
               length field at 8 survives the cut *)
            let b = Bytes.sub valid 0 (len - (cut mod 4)) in
            Imk_util.Byteio.set_addr b 8 (max 0 (n - ((cut / 4) mod 4)));
            b
      in
      let dst_len = dst_off + n + 16 in
      decode_outcome fused frame ~dst_off ~dst_len
      = decode_outcome reference frame ~dst_off ~dst_len)

let qcheck_inflate_equiv =
  qcheck_fused_equiv ~name:"gzip: fused inflate ≡ closure reference"
    Gzip.codec Inflate_ref.codec

let qcheck_lz4_equiv =
  qcheck_fused_equiv ~name:"lz4: fused decode ≡ closure reference" Lz4.codec
    Lz4_ref.codec

let qcheck_lzo_equiv =
  qcheck_fused_equiv ~name:"lzo: fused decode ≡ closure reference" Lzo.codec
    Lzo_ref.codec

(* the output of [tokens]: literals verbatim, each match replicated
   forward a byte at a time from [dist] bytes back *)
let lz_output tokens =
  let out = Buffer.create 4096 in
  List.iter
    (function
      | Lz77.Literal c -> Buffer.add_char out c
      | Lz77.Match { dist; len } ->
          for _ = 1 to len do
            Buffer.add_char out (Buffer.nth out (Buffer.length out - dist))
          done)
    tokens;
  Buffer.to_bytes out

(* a gzip frame holding [tokens] under the given code lengths, which
   need not be optimal for the tokens, and the bytes it decodes to *)
let gzip_frame_of_tokens lit_lens dist_lens tokens =
  let w = Bitio.Writer.create () in
  Huffman.write_lengths w lit_lens;
  Huffman.write_lengths w dist_lens;
  let lit_enc = Huffman.encoder_of_lengths lit_lens in
  let dist_enc = Huffman.encoder_of_lengths dist_lens in
  List.iter
    (function
      | Lz77.Literal c -> Huffman.encode lit_enc w (Char.code c)
      | Lz77.Match { dist; len } ->
          let ls, lbits, lv = Gzip.length_code len in
          Huffman.encode lit_enc w ls;
          Bitio.Writer.put_bits w lv lbits;
          let ds, dbits, dv = Gzip.distance_code dist in
          Huffman.encode dist_enc w ds;
          Bitio.Writer.put_bits w dv dbits)
    tokens;
  Huffman.encode lit_enc w 256;
  let orig = lz_output tokens in
  (Codec.frame ~name:"gzip" ~orig ~payload:(Bitio.Writer.contents w), orig)

(* hand-built frames whose skewed code lengths put the tokens' literal,
   length and distance codes past the 9-bit root, so both tables decode
   through their subtable links; the tokens include overlapping matches
   (dist < len), matches of 32 bytes or more, and one token of the full
   50 bits (a 15-bit length code with 7 extra bits, a 15-bit distance
   code with 13). Every prefix of the small frame must fail the same
   way under both decoders. *)
let test_inflate_deep_codes_and_copies () =
  let rec fib n = if n < 2 then 1 else fib (n - 1) + fib (n - 2) in
  let lit_freq = Array.make 285 0 in
  for i = 0 to 39 do
    lit_freq.(i) <- fib (min i 25)
  done;
  for ls = 256 to 283 do
    lit_freq.(ls) <- 1000
  done;
  lit_freq.(284) <- 1;
  let lit_lens = Huffman.lengths_of_freqs lit_freq in
  let dist_lens =
    Huffman.lengths_of_freqs
      (Array.init 30 (fun ds -> if ds = 29 then 1 else fib (min ds 25)))
  in
  let code_len lens (sym, _, _) = lens.(sym) in
  check int "literal 0's code" 15 lit_lens.(0);
  check int "length 258's code" 15 (code_len lit_lens (Gzip.length_code 258));
  check int "distance 1's code" 15 (code_len dist_lens (Gzip.distance_code 1));
  check int "distance 30000's code" 15
    (code_len dist_lens (Gzip.distance_code 30000));
  let lits = List.init 40 (fun i -> Lz77.Literal (Char.chr i)) in
  let matches =
    List.map
      (fun (dist, len) -> Lz77.Match { dist; len })
      [ (1, 50); (2, 3); (3, 40); (60, 35); (7, 4); (90, 258) ]
  in
  let small, small_orig =
    gzip_frame_of_tokens lit_lens dist_lens (lits @ matches @ lits @ matches)
  in
  check bytes_testable "fused inflate" small_orig
    (Gzip.codec.Codec.decompress small);
  check bytes_testable "closure reference" small_orig
    (Inflate_ref.codec.Codec.decompress small);
  let dst_len = Bytes.length small_orig + 8 in
  for keep = 0 to Bytes.length small - 1 do
    let frame = Bytes.sub small 0 keep in
    check Alcotest.bool
      (Printf.sprintf "%d-byte prefix fails alike" keep)
      true
      (decode_outcome Gzip.codec frame ~dst_off:4 ~dst_len
      = decode_outcome Inflate_ref.codec frame ~dst_off:4 ~dst_len)
  done;
  (* a 50-bit far match and a 15-bit literal are 65 bits, so eight
     pairs start the far match at every bit offset modulo 8: a window
     refilled to fewer than 50 bits runs short at one of them *)
  let filler = List.init 150 (fun _ -> Lz77.Match { dist = 1; len = 200 }) in
  let far_pairs =
    List.concat
      (List.init 8 (fun _ ->
           [ Lz77.Match { dist = 30000; len = 258 }; Lz77.Literal '\000' ]))
  in
  let far, far_orig =
    gzip_frame_of_tokens lit_lens dist_lens
      (lits @ matches @ filler @ far_pairs @ lits)
  in
  check bytes_testable "fused inflate, far match" far_orig
    (Gzip.codec.Codec.decompress far);
  check bytes_testable "closure reference, far match" far_orig
    (Inflate_ref.codec.Codec.decompress far)

(* --- one-pass LZ decoders vs the closure references
   (test/lz4_ref.ml, test/lzo_ref.ml) --- *)

(* [k] distinct-looking literal bytes *)
let lits k = String.init k (fun i -> Char.chr ((i * 37 + 11) land 0xff))

let lit_tokens s = List.init (String.length s) (fun i -> Lz77.Literal s.[i])

(* an lz4 payload of [seqs], each a literal string and an optional
   [(dist, len)] match, written as given, legal or not; a field of 15
   or more takes the 255-run extension bytes *)
let lz4_payload seqs =
  let buf = Buffer.create 4096 in
  let ext v =
    if v >= 15 then begin
      let r = ref (v - 15) in
      while !r >= 255 do
        Buffer.add_char buf '\255';
        r := !r - 255
      done;
      Buffer.add_char buf (Char.chr !r)
    end
  in
  List.iter
    (fun (l, m) ->
      let ml = match m with None -> 0 | Some (_, len) -> len - 4 in
      Buffer.add_char buf
        (Char.chr ((min (String.length l) 15 lsl 4) lor min ml 15));
      ext (String.length l);
      Buffer.add_string buf l;
      match m with
      | None -> ()
      | Some (dist, _) ->
          Buffer.add_char buf (Char.chr (dist land 0xff));
          Buffer.add_char buf (Char.chr (dist lsr 8));
          ext ml)
    seqs;
  Buffer.to_bytes buf

let lz4_tokens seqs =
  List.concat_map
    (fun (l, m) ->
      lit_tokens l
      @ match m with None -> [] | Some (dist, len) -> [ Lz77.Match { dist; len } ])
    seqs

(* both decoders give the same outcome on [frame], decoding at 4 into
   8 spare bytes around a window sized for [orig_len] *)
let fused_agrees fused reference frame ~orig_len =
  let dst_len = orig_len + 8 in
  decode_outcome fused frame ~dst_off:4 ~dst_len
  = decode_outcome reference frame ~dst_off:4 ~dst_len

let corrupt_message codec frame =
  match codec.Codec.decompress frame with
  | _ -> "decoded"
  | exception Codec.Corrupt m -> m

(* a hand-built lz4 frame: literal-run and match-length fields whose
   extension chains sum to exactly 15, 270 and 525; overlapping matches
   at distances 1-3 of 32 bytes or more; a 64-byte match that does not
   overlap; and a match reaching back to the first byte (dist = w). One
   byte further (dist = w + 1) is a bad distance, and every prefix of
   the frame fails alike under both decoders. *)
let test_lz4_hand_built_frame () =
  let head =
    [
      (lits 15, Some (1, 19 + 32));
      (lits 270, Some (2, 274));
      (lits 525, Some (3, 529));
      (lits 3, Some (100, 64));
      (lits 1, Some (1, 19));
    ]
  in
  let w = Bytes.length (lz_output (lz4_tokens head)) in
  let seqs dist = head @ [ (lits 2, Some (dist, 4)); (lits 5, None) ] in
  let orig = lz_output (lz4_tokens (seqs (w + 2))) in
  let frame dist = Codec.frame ~name:"lz4" ~orig ~payload:(lz4_payload (seqs dist)) in
  let good = frame (w + 2) in
  check bytes_testable "fused decode" orig (Lz4.codec.Codec.decompress good);
  check bytes_testable "closure reference" orig
    (Lz4_ref.codec.Codec.decompress good);
  check Alcotest.string "dist = w + 1" "lz4: bad distance"
    (corrupt_message Lz4.codec (frame (w + 3)));
  check Alcotest.bool "dist = w + 1 fails alike" true
    (fused_agrees Lz4.codec Lz4_ref.codec (frame (w + 3))
       ~orig_len:(Bytes.length orig));
  for keep = 0 to Bytes.length good - 1 do
    check Alcotest.bool
      (Printf.sprintf "%d-byte prefix fails alike" keep)
      true
      (fused_agrees Lz4.codec Lz4_ref.codec (Bytes.sub good 0 keep)
         ~orig_len:(Bytes.length orig))
  done

(* an lzo payload of [tokens]: literal runs of 1-128 bytes and matches
   of 3-66 bytes, written as given, legal or not *)
let lzo_payload tokens =
  let buf = Buffer.create 4096 in
  List.iter
    (function
      | `Lits l ->
          Buffer.add_char buf (Char.chr (String.length l - 1));
          Buffer.add_string buf l
      | `Match (dist, len) ->
          Buffer.add_char buf (Char.chr (0x80 lor (len - 3)));
          Buffer.add_char buf (Char.chr (dist land 0xff));
          Buffer.add_char buf (Char.chr (dist lsr 8)))
    tokens;
  Buffer.to_bytes buf

let lzo_tokens tokens =
  List.concat_map
    (function
      | `Lits l -> lit_tokens l
      | `Match (dist, len) -> [ Lz77.Match { dist; len } ])
    tokens

(* a hand-built lzo frame: overlapping matches at distances 1-3 of 32
   bytes or more, a 64-byte match that does not overlap, a match
   reaching back to the first byte (dist = w) and, one byte further, a
   bad distance; every prefix fails alike under both decoders. A
   literal run that runs out of input and of output at the same byte
   fails as truncated input, as the reference's per-byte loop checks
   the input first. *)
let test_lzo_hand_built_frame () =
  let head =
    [
      `Lits (lits 40); `Match (1, 66); `Lits (lits 128); `Match (2, 40);
      `Match (3, 33); `Lits (lits 10); `Match (100, 64);
    ]
  in
  let w = Bytes.length (lz_output (lzo_tokens head)) in
  let tokens dist = head @ [ `Match (dist, 3); `Lits (lits 7) ] in
  let orig = lz_output (lzo_tokens (tokens w)) in
  let frame dist = Codec.frame ~name:"lzo" ~orig ~payload:(lzo_payload (tokens dist)) in
  let good = frame w in
  check bytes_testable "fused decode" orig (Lzo.codec.Codec.decompress good);
  check bytes_testable "closure reference" orig
    (Lzo_ref.codec.Codec.decompress good);
  check Alcotest.string "dist = w + 1" "lz77: bad distance"
    (corrupt_message Lzo.codec (frame (w + 1)));
  check Alcotest.bool "dist = w + 1 fails alike" true
    (fused_agrees Lzo.codec Lzo_ref.codec (frame (w + 1))
       ~orig_len:(Bytes.length orig));
  for keep = 0 to Bytes.length good - 1 do
    check Alcotest.bool
      (Printf.sprintf "%d-byte prefix fails alike" keep)
      true
      (fused_agrees Lzo.codec Lzo_ref.codec (Bytes.sub good 0 keep)
         ~orig_len:(Bytes.length orig))
  done;
  (* a 20-byte run cut to 12 bytes of input, in a window with room for
     11, 12 or 13 more bytes *)
  let payload = lzo_payload (head @ [ `Lits (lits 20) ]) in
  let payload = Bytes.sub payload 0 (Bytes.length payload - 8) in
  List.iter
    (fun (room, expect) ->
      let frame =
        Codec.frame ~name:"lzo" ~orig:(Bytes.make (w + room) 'x') ~payload
      in
      check Alcotest.string
        (Printf.sprintf "run short of input, room for %d" room)
        expect
        (corrupt_message Lzo.codec frame);
      check Alcotest.bool
        (Printf.sprintf "room for %d fails alike" room)
        true
        (fused_agrees Lzo.codec Lzo_ref.codec frame ~orig_len:(w + room)))
    [
      (11, "lz77: literal overflow");
      (12, "lzo: truncated literal run");
      (13, "lzo: truncated literal run");
    ]

(* a direct call with a destination window that does not fit raises
   Invalid_argument before a single byte of [dst] is written *)
let test_lz4_direct_call_confined () =
  let input = Bytes.of_string (lits 40 ^ String.make 100 'q' ^ lits 40) in
  let payload = Lz4.encode_payload input in
  let orig_len = Bytes.length input in
  List.iter
    (fun (what, dst_len, dst_off) ->
      let dst = Bytes.make dst_len '\xab' in
      check Alcotest.bool what true
        (match
           Lz4.decode_payload_into payload ~src_off:0 ~dst ~dst_off ~orig_len
         with
        | () -> false
        | exception Invalid_argument _ -> true);
      check Alcotest.string
        (what ^ ": dst untouched")
        (String.make dst_len '\xab') (Bytes.to_string dst))
    [
      ("dst one byte short", orig_len - 1, 0);
      ("window past the end", orig_len + 8, 9);
      ("negative dst_off", orig_len + 8, -1);
    ]

let () =
  Alcotest.run "imk_compress"
    [
      ("bitio",
        [
          Alcotest.test_case "roundtrip" `Quick test_bitio_roundtrip;
          Alcotest.test_case "align" `Quick test_bitio_align;
          Alcotest.test_case "truncated" `Quick test_bitio_truncated;
          Alcotest.test_case "peek/consume" `Quick test_bitio_peek_consume;
          Testkit.to_alcotest qcheck_bitio_roundtrip;
        ] );
      ( "huffman",
        [
          Alcotest.test_case "roundtrip" `Quick test_huffman_roundtrip;
          Alcotest.test_case "single symbol" `Quick test_huffman_single_symbol;
          Alcotest.test_case "max_len clamp" `Quick test_huffman_max_len_respected;
          Alcotest.test_case "length table io" `Quick
            test_huffman_lengths_table_io;
          Alcotest.test_case "rejects over-subscribed lengths" `Quick
            test_huffman_rejects_oversubscribed;
          Alcotest.test_case "rejects out-of-range length" `Quick
            test_huffman_rejects_out_of_range_length;
          Alcotest.test_case "deep codes hit the subtables" `Quick
            test_huffman_table_deep_codes;
          Testkit.to_alcotest qcheck_huffman_kraft;
          Testkit.to_alcotest qcheck_huffman_table_equiv_valid_streams;
          Testkit.to_alcotest qcheck_huffman_table_equiv_random_streams;
        ] );
      ( "bwt+mtf",
        [
          Alcotest.test_case "bwt banana" `Quick test_bwt_known;
          Alcotest.test_case "bwt empty" `Quick test_bwt_empty;
          Alcotest.test_case "suffix array sorted" `Quick
            test_suffix_array_sorted;
          Alcotest.test_case "mtf roundtrip" `Quick test_mtf_roundtrip;
          Alcotest.test_case "rle2 roundtrip" `Quick test_rle2_roundtrip;
          Testkit.to_alcotest qcheck_bwt_roundtrip;
          Testkit.to_alcotest qcheck_mtf_roundtrip;
        ] );
      ( "lz formats",
        [
          Alcotest.test_case "lz4 long runs" `Quick test_lz4_long_runs;
          Alcotest.test_case "lz4 corrupt" `Quick test_lz4_corrupt_rejected;
          Alcotest.test_case "gzip code tables" `Quick test_gzip_code_tables;
        ] );
      ( "inflate",
        [
          Alcotest.test_case "deep codes, overlapping and long copies" `Quick
            test_inflate_deep_codes_and_copies;
          Testkit.to_alcotest qcheck_inflate_equiv;
        ] );
      ( "lz decode",
        [
          Alcotest.test_case "lz4 extension chains and copies" `Quick
            test_lz4_hand_built_frame;
          Alcotest.test_case "lzo copies and literal-run failures" `Quick
            test_lzo_hand_built_frame;
          Alcotest.test_case "lz4 direct call confined" `Quick
            test_lz4_direct_call_confined;
          Testkit.to_alcotest qcheck_lz4_equiv;
          Testkit.to_alcotest qcheck_lzo_equiv;
        ] );
      ( "range coder",
        [
          Alcotest.test_case "bits" `Quick test_range_coder_bits;
          Alcotest.test_case "direct and tree" `Quick
            test_range_coder_direct_and_tree;
          Alcotest.test_case "skewed compresses" `Quick
            test_range_coder_skewed_compresses;
          Alcotest.test_case "overlong claim fails at the end" `Quick
            test_range_coder_overlong_claim;
        ] );
      ( "frames",
        [
          Alcotest.test_case "wrong codec" `Quick test_frame_rejects_wrong_codec;
          Alcotest.test_case "truncated" `Quick test_frame_rejects_truncated;
          Alcotest.test_case "corruption detected" `Quick
            test_frame_detects_corruption;
          Alcotest.test_case "registry" `Quick test_registry_contents;
          Alcotest.test_case "ratios > 4 on runs" `Quick
            test_compression_actually_compresses;
          Alcotest.test_case "ratio ordering" `Quick
            test_ratio_ordering_on_kernel_like_data;
          Alcotest.test_case "sink rejects bad destination" `Quick
            test_into_rejects_bad_destination;
        ] );
      ( "sinks",
        List.map (fun c -> Testkit.to_alcotest (qcheck_into_equiv c))
          Registry.all
        @ List.map (fun c -> Testkit.to_alcotest (qcheck_into_corrupt c))
            Registry.all );
      ( "roundtrips",
        List.concat_map roundtrip_tests Registry.all
        @ List.map (fun c -> Testkit.to_alcotest (qcheck_roundtrip c))
            Registry.all );
      ( "adversarial",
        List.map (fun c -> Testkit.to_alcotest (qcheck_mutation c))
          Registry.all
        @ List.map (fun c -> Testkit.to_alcotest (qcheck_truncation c))
            Registry.all );
    ]

let min_match = 3

type models = {
  is_match : Range_coder.prob; (* ctx: previous decision was a match *)
  literal : Range_coder.prob array; (* 8 contexts of a 256-node tree *)
  len_choice : Range_coder.prob;
  len_low : Range_coder.prob; (* 3-bit tree *)
  len_high : Range_coder.prob; (* 9-bit tree *)
  dist_slot : Range_coder.prob; (* 5-bit tree *)
}

let make_models () =
  {
    is_match = Range_coder.make_probs 2;
    literal = Array.init 8 (fun _ -> Range_coder.make_probs 256);
    len_choice = Range_coder.make_probs 2;
    len_low = Range_coder.make_probs 8;
    len_high = Range_coder.make_probs 512;
    dist_slot = Range_coder.make_probs 32;
  }

let lit_ctx prev = prev lsr 5

(* Distance d-1 is coded as a bit-length slot (0..20) plus the bits below
   the leading one as direct bits. *)
let bit_length v =
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 1) in
  go 0 v

let encode_payload input =
  let e = Range_coder.Encoder.create () in
  let m = make_models () in
  let prev_byte = ref 0 and prev_match = ref 0 in
  let pos = ref 0 in
  let emit = function
    | Lz77.Literal c ->
        Range_coder.Encoder.encode_bit e m.is_match !prev_match 0;
        Range_coder.Encoder.encode_tree e m.literal.(lit_ctx !prev_byte) (Char.code c) 8;
        prev_byte := Char.code c;
        prev_match := 0;
        incr pos
    | Lz77.Match { dist; len } ->
        Range_coder.Encoder.encode_bit e m.is_match !prev_match 1;
        let l = len - min_match in
        if l < 8 then begin
          Range_coder.Encoder.encode_bit e m.len_choice 0 0;
          Range_coder.Encoder.encode_tree e m.len_low l 3
        end
        else begin
          Range_coder.Encoder.encode_bit e m.len_choice 0 1;
          Range_coder.Encoder.encode_tree e m.len_high (l - 8) 9
        end;
        let d = dist - 1 in
        let slot = bit_length d in
        Range_coder.Encoder.encode_tree e m.dist_slot slot 5;
        if slot >= 2 then
          Range_coder.Encoder.encode_direct e (d land ((1 lsl (slot - 1)) - 1)) (slot - 1);
        pos := !pos + len;
        prev_match := 1;
        prev_byte := Char.code (Bytes.get input (!pos - 1))
  in
  Lz77.parse Lz77.lzma_config input ~f:emit;
  Range_coder.Encoder.finish e

let decode_payload_into b ~src_off ~dst ~dst_off ~orig_len =
  let d = Range_coder.Decoder.create b ~pos:src_off in
  let m = make_models () in
  (* write confinement: stores land at dst_off + w (+ k) with
     w (+ k) < orig_len checked per decision; loads from dst are at
     dst_off + w + k - dist >= dst_off since dist <= w *)
  let w = ref 0 and prev_byte = ref 0 and prev_match = ref 0 in
  while !w < orig_len do
    if Range_coder.Decoder.decode_bit d m.is_match !prev_match = 0 then begin
      let c = Range_coder.Decoder.decode_tree d m.literal.(lit_ctx !prev_byte) 8 in
      Bytes.set dst (dst_off + !w) (Char.chr c);
      prev_byte := c;
      prev_match := 0;
      incr w
    end
    else begin
      let l =
        if Range_coder.Decoder.decode_bit d m.len_choice 0 = 0 then
          Range_coder.Decoder.decode_tree d m.len_low 3
        else 8 + Range_coder.Decoder.decode_tree d m.len_high 9
      in
      let len = l + min_match in
      let slot = Range_coder.Decoder.decode_tree d m.dist_slot 5 in
      let dval =
        if slot = 0 then 0
        else if slot = 1 then 1
        else
          (1 lsl (slot - 1)) lor Range_coder.Decoder.decode_direct d (slot - 1)
      in
      let dist = dval + 1 in
      if dist > !w then raise (Codec.Corrupt "lzma: distance before start");
      if !w + len > orig_len then raise (Codec.Corrupt "lzma: match overflow");
      for k = 0 to len - 1 do
        Bytes.set dst (dst_off + !w + k) (Bytes.get dst (dst_off + !w + k - dist))
      done;
      w := !w + len;
      prev_byte := Char.code (Bytes.get dst (dst_off + !w - 1));
      prev_match := 1
    end
  done

let codec =
  Codec.make ~name:"lzma" ~encode:encode_payload ~decode_into:decode_payload_into

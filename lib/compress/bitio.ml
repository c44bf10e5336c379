(* Both endpoints batch bits through an int accumulator instead of
   moving one bit at a time. Bits are MSB-first within each byte (the
   canonical-Huffman convention), so the writer flushes from the top of
   its accumulator and the reader serves from the top of its buffered
   window. Only the low [nbits] bits of an accumulator are meaningful;
   higher bits may hold stale garbage, and every extraction masks, so
   the hot paths never pay to keep the high bits clean. *)

module Writer = struct
  type t = { buf : Buffer.t; mutable acc : int; mutable nbits : int; mutable total : int }

  let create () = { buf = Buffer.create 4096; acc = 0; nbits = 0; total = 0 }

  let put_bits w v n =
    if n < 0 || n > 24 then invalid_arg "Bitio.put_bits: n out of range";
    w.acc <- (w.acc lsl n) lor (v land ((1 lsl n) - 1));
    w.nbits <- w.nbits + n;
    w.total <- w.total + n;
    (* flush whole bytes from the top; nbits stays < 8 between calls, so
       the accumulator never exceeds 7 + 24 bits *)
    while w.nbits >= 8 do
      w.nbits <- w.nbits - 8;
      Buffer.add_char w.buf (Char.chr ((w.acc lsr w.nbits) land 0xff))
    done

  let put_bit w b = put_bits w (b land 1) 1

  let put_code w ~code ~len = put_bits w code len

  let align_byte w =
    let pad = (8 - (w.nbits land 7)) land 7 in
    if pad > 0 then put_bits w 0 pad

  let contents w =
    align_byte w;
    Buffer.to_bytes w.buf

  let bit_length w = w.total
end

module Reader = struct
  type t = {
    data : bytes;
    len : int;
    mutable pos : int;  (* next byte to refill from *)
    mutable acc : int;  (* low [nbits] bits pending, next bit on top *)
    mutable nbits : int;
  }

  exception Truncated

  let create data ~pos = { data; len = Bytes.length data; pos; acc = 0; nbits = 0 }

  (* Refill whole bytes until [need] bits are buffered or the stream is
     exhausted. [need] <= 25, so the live window stays under 32 bits and
     the left shifts can never push meaningful bits past an OCaml int.
     The bounds check is the loop condition itself; the unsafe_get reads
     a byte the check just proved in range. *)
  let refill r need =
    while r.nbits < need && r.pos < r.len do
      r.acc <- (r.acc lsl 8) lor Char.code (Bytes.unsafe_get r.data r.pos);
      r.pos <- r.pos + 1;
      r.nbits <- r.nbits + 8
    done

  let peek_bits r n =
    if n < 0 || n > 24 then invalid_arg "Bitio.peek_bits: n out of range";
    if r.nbits < n then refill r n;
    if r.nbits >= n then (r.acc lsr (r.nbits - n)) land ((1 lsl n) - 1)
    else
      (* stream exhausted: pad with zero bits on the right, as zlib does —
         consume catches any attempt to actually claim the padding *)
      ((r.acc land ((1 lsl r.nbits) - 1)) lsl (n - r.nbits)) land ((1 lsl n) - 1)

  let consume r n =
    if r.nbits < n then begin
      refill r n;
      if r.nbits < n then raise Truncated
    end;
    r.nbits <- r.nbits - n

  let get_bit r =
    if r.nbits = 0 then begin
      refill r 1;
      if r.nbits = 0 then raise Truncated
    end;
    r.nbits <- r.nbits - 1;
    (r.acc lsr r.nbits) land 1

  let get_bits r n =
    if n < 0 || n > 24 then invalid_arg "Bitio.get_bits: n out of range";
    if r.nbits < n then begin
      refill r n;
      if r.nbits < n then raise Truncated
    end;
    r.nbits <- r.nbits - n;
    (r.acc lsr r.nbits) land ((1 lsl n) - 1)

  let align_byte r = r.nbits <- r.nbits - (r.nbits land 7)

  let byte_pos r = r.pos - (r.nbits lsr 3)

  let window r = (r.pos, r.acc, r.nbits)
end

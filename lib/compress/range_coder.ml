let prob_bits = 11
let prob_init = 1 lsl (prob_bits - 1)
let move_bits = 5
let top = 1 lsl 24

type prob = int array

let make_probs n = Array.make n prob_init

module Encoder = struct
  type t = {
    buf : Buffer.t;
    mutable low : int; (* up to 33 bits *)
    mutable range : int; (* 32 bits *)
    mutable cache : int;
    mutable cache_size : int;
        (* number of bytes represented by [cache] + pending 0xffs; starts
           at 1 to swallow the initial zero pad byte *)
  }

  let create () =
    { buf = Buffer.create 4096; low = 0; range = 0xffff_ffff; cache = 0; cache_size = 1 }

  let shift_low e =
    if e.low < 0xff00_0000 || e.low > 0xffff_ffff then begin
      let carry = e.low lsr 32 in
      (* flush cache byte plus any pending 0xff run, propagating carry *)
      let b = ref e.cache in
      for _ = 1 to e.cache_size do
        Buffer.add_char e.buf (Char.chr ((!b + carry) land 0xff));
        b := 0xff
      done;
      e.cache <- (e.low lsr 24) land 0xff;
      e.cache_size <- 0
    end;
    e.cache_size <- e.cache_size + 1;
    e.low <- (e.low lsl 8) land 0xffff_ffff

  let normalize e =
    while e.range < top do
      e.range <- (e.range lsl 8) land 0xffff_ffff;
      shift_low e
    done

  let encode_bit e probs idx bit =
    let p = probs.(idx) in
    let bound = (e.range lsr prob_bits) * p in
    if bit = 0 then begin
      e.range <- bound;
      probs.(idx) <- p + (((1 lsl prob_bits) - p) lsr move_bits)
    end
    else begin
      e.low <- e.low + bound;
      e.range <- e.range - bound;
      probs.(idx) <- p - (p lsr move_bits)
    end;
    normalize e

  let encode_direct e v n =
    for i = n - 1 downto 0 do
      e.range <- e.range lsr 1;
      let bit = (v lsr i) land 1 in
      if bit = 1 then e.low <- e.low + e.range;
      normalize e
    done

  let encode_tree e probs v n =
    let m = ref 1 in
    for i = n - 1 downto 0 do
      let bit = (v lsr i) land 1 in
      encode_bit e probs !m bit;
      m := (!m lsl 1) lor bit
    done

  let finish e =
    for _ = 1 to 5 do
      shift_low e
    done;
    Buffer.to_bytes e.buf
end

module Decoder = struct
  type t = {
    data : bytes;
    mutable pos : int;
    mutable code : int;
    mutable range : int;
  }

  (* A valid stream is never read past its end: the encoder's five
     flush bytes cover the decoder's five priming reads, and every later
     normalization reads the byte the encoder's mirror-image shift wrote.
     So running out of input is damage — typically a frame whose length
     field claims more output than its payload holds — and fails here,
     not after decoding the claimed length from an endless zero tail. *)
  let next_byte d =
    if d.pos >= Bytes.length d.data then
      raise (Codec.Corrupt "range: truncated stream")
    else begin
      let c = Char.code (Bytes.get d.data d.pos) in
      d.pos <- d.pos + 1;
      c
    end

  let create data ~pos =
    if Bytes.length data - pos < 5 then raise (Codec.Corrupt "range: truncated stream");
    let d = { data; pos; code = 0; range = 0xffff_ffff } in
    ignore (next_byte d);
    for _ = 1 to 4 do
      d.code <- ((d.code lsl 8) lor next_byte d) land 0xffff_ffff
    done;
    d

  let normalize d =
    while d.range < top do
      d.range <- (d.range lsl 8) land 0xffff_ffff;
      d.code <- ((d.code lsl 8) lor next_byte d) land 0xffff_ffff
    done

  let decode_bit d probs idx =
    let p = probs.(idx) in
    let bound = (d.range lsr prob_bits) * p in
    let bit =
      if d.code < bound then begin
        d.range <- bound;
        probs.(idx) <- p + (((1 lsl prob_bits) - p) lsr move_bits);
        0
      end
      else begin
        d.code <- d.code - bound;
        d.range <- d.range - bound;
        probs.(idx) <- p - (p lsr move_bits);
        1
      end
    in
    normalize d;
    bit

  let decode_direct d n =
    let v = ref 0 in
    for _ = 1 to n do
      d.range <- d.range lsr 1;
      let bit = if d.code >= d.range then 1 else 0 in
      if bit = 1 then d.code <- d.code - d.range;
      v := (!v lsl 1) lor bit;
      normalize d
    done;
    !v

  let decode_tree d probs n =
    let m = ref 1 in
    for _ = 1 to n do
      m := (!m lsl 1) lor decode_bit d probs !m
    done;
    !m - (1 lsl n)
end

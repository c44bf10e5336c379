(** LZ4-style codec: byte-aligned LZ77 with token-packed sequences.

    The format follows the real LZ4 block layout — a token byte holding
    4-bit literal-run and match-length fields (15 escaping to 255-run
    extension bytes), the literal bytes, then a 2-byte little-endian match
    distance — which is what makes the decoder a short branch-light copy
    loop and LZ4 the fastest scheme to boot from (paper Figure 3). *)

val codec : Codec.t

val encode_payload : bytes -> bytes
(** [encode_payload input] is the raw block encoding without the standard
    frame; exposed for the format-level unit tests. *)

val decode_payload_into :
  bytes -> src_off:int -> dst:bytes -> dst_off:int -> orig_len:int -> unit
(** [decode_payload_into b ~src_off ~dst ~dst_off ~orig_len] inverts
    {!encode_payload}: it decodes the block at [src_off] into
    [\[dst_off, dst_off + orig_len)] of [dst], writing nothing outside
    that window. The window is checked once, before any byte moves: a
    window that does not fit in [dst], or a negative [src_off], raises
    [Invalid_argument] with [dst] untouched. Decoding is one loop over
    local variables, with the checks and messages of the closure
    decoder kept as the reference model in [test/lz4_ref.ml]. Raises
    [Codec.Corrupt] on malformed input. *)

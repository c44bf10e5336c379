(** LZO-style codec: single-probe LZ77 with one-byte control codes.

    Control bytes below 0x80 introduce a literal run of [c+1] bytes;
    [0x80 lor (len-3)] introduces a match of 3–66 bytes at a 2-byte
    little-endian distance. The single-probe match finder makes
    compression very fast at a weaker ratio than LZ4's chained search —
    LZO's historical niche. *)

val codec : Codec.t

val encode_payload : bytes -> bytes

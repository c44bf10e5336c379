(** LZO-style codec: single-probe LZ77 with one-byte control codes.

    Control bytes below 0x80 introduce a literal run of [c+1] bytes;
    [0x80 lor (len-3)] introduces a match of 3–66 bytes at a 2-byte
    little-endian distance. The single-probe match finder makes
    compression very fast at a weaker ratio than LZ4's chained search —
    LZO's historical niche.

    Decoding is one loop over local variables: a literal run is one
    blit, a match one blit or, when it overlaps its own output, a
    forward byte loop. The destination window is checked once, before
    any byte moves, and every run and match is checked against it, so
    no byte outside the window is written. The checks and messages are
    those of the token-sink decoder kept as the reference model in
    [test/lzo_ref.ml]. *)

val codec : Codec.t

val encode_payload : bytes -> bytes

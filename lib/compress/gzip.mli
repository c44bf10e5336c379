(** Gzip-style codec: DEFLATE-shaped LZ77 + dynamic canonical Huffman.

    Tokens from a 32 KiB-window, deep-chain LZ77 parse are entropy-coded
    with two per-stream Huffman tables (literal/length and distance),
    using the real DEFLATE length and distance code tables with extra
    bits. The table header stores code lengths as nibbles rather than
    DEFLATE's run-length-coded header — a simplification that costs ~160
    bytes per stream and changes nothing structural. *)

val codec : Codec.t

val encode_payload : bytes -> bytes

val length_code : int -> int * int * int
(** [length_code len] is [(symbol, extra_bits, extra_value)] for a match
    length in [3, 258], using the DEFLATE table (symbols 257–284 here
    remapped to 257+code_index). Exposed for unit tests. *)

val distance_code : int -> int * int * int
(** [distance_code dist] is [(symbol, extra_bits, extra_value)] for a
    distance in [1, 32768]. *)

(** Gzip-style codec: DEFLATE-shaped LZ77 + dynamic canonical Huffman.

    Tokens from a 32 KiB-window, deep-chain LZ77 parse are entropy-coded
    with two per-stream Huffman tables (literal/length and distance),
    using the real DEFLATE length and distance code tables with extra
    bits. The table header stores code lengths as nibbles rather than
    DEFLATE's run-length-coded header — a simplification that costs ~160
    bytes per stream and changes nothing structural.

    Decoding is one inflate loop: the bit window, input position and
    write cursor live in local variables, the window is refilled once
    per token (a token reads at most 50 bits), both Huffman tables are
    indexed inline ({!Huffman.table}), and literals and copies are
    written straight into the destination. It makes the checks of the
    closure decoder built from {!Huffman.decode}, {!Bitio.Reader} and
    an LZ77 token sink with one literal and one copy callback, in the
    same order and with the same messages; that decoder and the sink are
    kept as reference models in the tests ([test/inflate_ref.ml],
    [test/lz77_ref.ml]), and a qcheck property holds every
    [decompress_into] outcome of the two equal. *)

val codec : Codec.t

val encode_payload : bytes -> bytes

val length_code : int -> int * int * int
(** [length_code len] is [(symbol, extra_bits, extra_value)] for a match
    length in [3, 258], using the DEFLATE table (symbols 257–284 here
    remapped to 257+code_index). Exposed for unit tests. *)

val distance_code : int -> int * int * int
(** [distance_code dist] is [(symbol, extra_bits, extra_value)] for a
    distance in [1, 32768]. *)

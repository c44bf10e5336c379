(** Canonical Huffman coding.

    Shared by the gzip-style and bzip2-style codecs. Codes are canonical:
    only the per-symbol code *lengths* are stored in compressed streams,
    and both sides rebuild identical codebooks from them, exactly as
    DEFLATE and bzip2 do. *)

val lengths_of_freqs : ?max_len:int -> int array -> int array
(** [lengths_of_freqs ?max_len freqs] computes code lengths for each
    symbol from its frequency. Symbols with zero frequency get length 0
    (no code). Lengths are limited to [max_len] (default 15) with a
    Kraft-sum repair pass when the raw Huffman tree is deeper. If exactly
    one symbol occurs it receives length 1. *)

val kraft_sum_valid : int array -> bool
(** [kraft_sum_valid lens] checks Σ 2^(-len) ≤ 1 over nonzero lengths —
    the decodability invariant the property tests assert. *)

type encoder

val encoder_of_lengths : int array -> encoder
(** [encoder_of_lengths lens] assigns canonical codes (shorter codes
    first, ties broken by symbol index). *)

val encode : encoder -> Bitio.Writer.t -> int -> unit
(** [encode enc w sym] writes [sym]'s code. Raises [Invalid_argument] if
    [sym] has no code (length 0). *)

type decoder

val decoder_of_lengths : int array -> decoder
(** [decoder_of_lengths lens] builds the canonical decoder for the same
    lengths: a zlib-style lookup table (9-bit root, one subtable level
    for codes up to the 15-bit cap — see DESIGN.md §4 for the layout)
    plus the bit-serial reference fields. Raises [Codec.Corrupt] if the
    lengths are not decodable (Kraft sum > 1, or a length outside
    [0, 15]). *)

val decode : decoder -> Bitio.Reader.t -> int
(** [decode dec r] reads one symbol through the lookup table — one
    {!Bitio.Reader.peek_bits}/[consume] pair for codes up to 9 bits, two
    for longer ones. Raises [Codec.Corrupt] on a prefix that matches no
    symbol and [Bitio.Reader.Truncated] when the stream ends inside a
    code. The bzip2 decoder reads its symbols through it, and so does
    the closure gzip decoder kept as the reference model in the tests;
    gzip's own inflate loop indexes {!table} inline instead. *)

val table : decoder -> int array
(** [table dec] is the packed lookup table itself, not a copy: the root
    table in slots [\[0, 1 lsl root_bits dec)], subtables after it, each
    entry [0] (no code), [(sym lsl 5) lor code_len] or
    [-((sub_off lsl 5) lor sub_bits)] (DESIGN.md §4.7). For a decoder
    that walks the table inline on its own bit window; it must not be
    written. *)

val root_bits : decoder -> int
(** [root_bits dec] is the root table's index width, [min max_len 9]
    (0 for a table with no codes, whose one slot is [0]). *)

val decode_ref : decoder -> Bitio.Reader.t -> int
(** [decode_ref dec r] is the original one-bit-at-a-time canonical walk,
    kept as the reference implementation. On any stream it decodes the
    same symbol sequence as {!decode} and fails at the same symbol;
    the failure exception may differ only at end-of-stream (the walk
    reports [Truncated] where the table can already prove [Corrupt]).
    The qcheck differential suite in [test_compress.ml] enforces this. *)

val write_lengths : Bitio.Writer.t -> int array -> unit
(** [write_lengths w lens] stores a length table as 4-bit nibbles —
    the simple table header both codecs here use. *)

val read_lengths : Bitio.Reader.t -> int -> int array
(** [read_lengths r n] reads back [n] nibble lengths. *)

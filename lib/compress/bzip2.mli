(** Bzip2-style codec: blockwise BWT → MTF → zero-run coding → Huffman.

    Each 128 KiB block goes through the Burrows–Wheeler transform, the
    move-to-front transform, bzip2's RUNA/RUNB bijective-base-2 encoding
    of zero runs, and a per-block canonical Huffman coder. Block headers
    carry the BWT primary index and the block's original length. Slowest
    of the byte-oriented schemes but strong on the repetitive regions of
    kernel images. *)

val codec : Codec.t

val encode_payload : bytes -> bytes

val rle2_encode : int array -> int array
(** MTF output → RUNA/RUNB symbol stream (exposed for unit tests):
    symbol 0 = RUNA, 1 = RUNB encode zero-run lengths in bijective base 2;
    nonzero MTF value [v] becomes symbol [v+1]; the end-of-block symbol
    257 is appended. *)

val rle2_decode : int array -> int array
(** Inverse of {!rle2_encode} (consumes up to the end-of-block symbol;
    raises [Codec.Corrupt] if it is missing). *)

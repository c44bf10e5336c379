(** Integrity checksums used by the compression container formats.

    CRC-32 (IEEE 802.3 polynomial, as in gzip/xz) and Adler-32 (as in
    zlib). Both are implemented from scratch; values match the standard
    algorithms so container self-checks behave like their real
    counterparts. *)

val crc32 : ?init:int -> bytes -> int -> int -> int
(** [crc32 ?init b off len] computes the CRC-32 of [len] bytes of [b]
    starting at [off]. [init] (default 0) allows incremental computation:
    feed the previous result back in. The result is in [0, 0xffffffff].
    Implemented slice-by-8 (eight 256-entry tables, one 64-bit load per
    eight message bytes) with head/tail handled by {!crc32_ref}; the
    qcheck differential suite in [test_util] pins it to the reference
    over random offsets, lengths and chained [init]s. *)

val crc32_ref : ?init:int -> bytes -> int -> int -> int
(** The byte-at-a-time reference implementation of {!crc32} — the checked
    loop the slice-by-8 fast path must match symbol-for-symbol. Exposed
    for the differential suite; it is on no production path, so nothing
    times it. *)

val crc32_string : string -> int
(** [crc32_string s] is the CRC-32 of all of [s]. *)

val adler32 : ?init:int -> bytes -> int -> int -> int
(** [adler32 ?init b off len] computes Adler-32 over the given range.
    [init] defaults to 1 as specified by zlib. *)

(** Shared LZ77 match finder.

    All dictionary codecs in this library (LZ4, LZO, gzip's DEFLATE-style
    layer, LZMA) are LZ77 parsers differing only in window size, match
    search effort and back-end encoding. This module supplies the parser:
    a hash-chain match finder that walks the input once and emits a token
    stream. Codecs differ by their {!config} and by how they serialize the
    tokens, which is what gives them their characteristic ratio/speed
    trade-offs on the kernel images. *)

type token =
  | Literal of char
  | Match of { dist : int; len : int }
      (** copy [len] bytes from [dist] bytes back; [dist >= 1],
          [dist <= window] and [len >= min_match] of the config. *)

type config = {
  window : int;  (** maximum match distance *)
  min_match : int;  (** shortest usable match, 3 or 4 *)
  max_match : int;  (** longest encodable match *)
  hash_bits : int;  (** size of the head table = 2^hash_bits *)
  max_chain : int;  (** probes per position; higher = better ratio, slower *)
}

val lz4_config : config
(** 64 KiB window, min match 4, shallow chains — fast, modest ratio. *)

val lzo_config : config
(** 48 KiB window, min match 3, single-probe — fastest, weakest ratio. *)

val deflate_config : config
(** 32 KiB window, min match 3, deep chains — the gzip work profile. *)

val lzma_config : config
(** 1 MiB window, min match 2 encoded as ≥3 here, very deep chains —
    the slow/high-ratio end of the spectrum. *)

val parse : config -> bytes -> f:(token -> unit) -> unit
(** [parse cfg input ~f] scans [input] left to right, calling [f] for each
    token. Concatenating the tokens (literals verbatim, matches resolved
    against already-produced output) reconstructs [input] exactly. *)

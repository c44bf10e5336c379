(** The common compression-codec interface.

    Each codec turns an arbitrary byte string into a self-describing frame
    and back. The frame carries the codec id, the uncompressed length and
    a CRC-32 of the original data, so decompression validates integrity —
    the same job the per-format trailers (gzip CRC, xz check, ...) do for
    real kernels. Frames are produced by {!frame} and consumed by one
    header parser and one decoder per codec, behind both [decompress]
    and [decompress_into]; the raw codecs under this interface only see
    payloads.

    The six registered codecs mirror the six kernel compression schemes the
    paper's Figure 3 compares. Decompression *rates* for the virtual clock
    live in [Imk_vclock.Cost_model]; this library is pure data
    transformation. *)

exception Corrupt of string
(** Raised by [decompress] / [decompress_into] on malformed or
    integrity-failing input. *)

type t = {
  name : string;  (** "none", "lz4", "lzo", "gzip", "bzip2", "xz", "lzma" *)
  compress : bytes -> bytes;
  decompress : bytes -> bytes;
      (** [decompress framed] is [decompress_into] on a fresh buffer of
          exactly the frame's original length, returned. *)
  decompress_into : bytes -> dst:bytes -> dst_off:int -> int;
      (** [decompress_into framed ~dst ~dst_off] decodes straight from
          the frame into the caller-owned window starting at [dst_off],
          returning the number of bytes written (the frame's original
          length) — no intermediate payload copy or output allocation.
          Write confinement: no byte outside
          [\[dst_off, dst_off + orig_len)] is ever written, even on
          corrupt input (on failure the window's contents are
          unspecified, everything outside it is untouched). Raises
          {!Corrupt} when the frame is malformed, fails its CRC, or
          claims an original length that does not fit in [dst];
          [Invalid_argument] only for an out-of-range [dst_off] (a
          caller bug, not input). *)
}

val frame : name:string -> orig:bytes -> payload:bytes -> bytes
(** [frame ~name ~orig ~payload] wraps [payload] with the standard header:
    magic, codec-name hash, original length, CRC-32 of [orig]. *)

val make :
  name:string ->
  encode:(bytes -> bytes) ->
  decode_into:
    (bytes -> src_off:int -> dst:bytes -> dst_off:int -> orig_len:int -> unit) ->
  t
(** [make ~name ~encode ~decode_into] lifts a raw payload codec into the
    framed interface, adding header handling and the CRC check.
    [decode_into b ~src_off ~dst ~dst_off ~orig_len] must decode the
    payload found at [src_off] (extending to the end of [b]) into
    exactly [orig_len] bytes at [dst_off], confining every write to that
    window. [decompress_into] runs it in place on the frame, and
    [decompress] runs [decompress_into]. *)

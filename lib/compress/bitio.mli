(** Bit-level I/O for the entropy-coded codecs (gzip, bzip2).

    Bits are written most-significant-first within each byte, the
    convention used by canonical-Huffman decoders that consume codes from
    the top of the bit reservoir. Both directions batch through an int
    accumulator: the writer flushes whole bytes as they complete, and the
    reader refills whole bytes and serves {!Reader.peek_bits} from the
    buffered window — the table-driven Huffman decoder's contract. *)

module Writer : sig
  type t

  val create : unit -> t

  val put_bit : t -> int -> unit
  (** [put_bit w b] appends the low bit of [b]. *)

  val put_bits : t -> int -> int -> unit
  (** [put_bits w v n] appends the low [n] bits of [v], most significant
      first. [n] must be in [0, 24]. *)

  val put_code : t -> code:int -> len:int -> unit
  (** [put_code w ~code ~len] is [put_bits w code len]; the natural call
      for emitting a Huffman code. *)

  val align_byte : t -> unit
  (** [align_byte w] pads with zero bits to the next byte boundary. *)

  val contents : t -> bytes
  (** [contents w] finalizes (byte-aligns) and returns the stream. *)

  val bit_length : t -> int
  (** [bit_length w] is the number of bits written so far. *)
end

module Reader : sig
  type t

  exception Truncated
  (** Raised when reading past the end of the stream. *)

  val create : bytes -> pos:int -> t
  (** [create b ~pos] reads bits starting at byte offset [pos] of [b]. *)

  val get_bit : t -> int

  val get_bits : t -> int -> int
  (** [get_bits r n] reads [n] bits (MSB-first), [n] in [0, 24]. *)

  val peek_bits : t -> int -> int
  (** [peek_bits r n] returns the next [n] bits without consuming them,
      [n] in [0, 24]. Past the end of the stream the result is padded on
      the right with zero bits — the zlib convention that lets a table
      lookup index with a full window near end-of-stream; {!consume}
      refuses to actually claim padding. *)

  val consume : t -> int -> unit
  (** [consume r n] discards [n] bits previously seen via {!peek_bits}.
      Raises {!Truncated} if fewer than [n] real bits remain. *)

  val align_byte : t -> unit

  val byte_pos : t -> int
  (** [byte_pos r] is the offset of the next unread byte once aligned. *)

  val window : t -> int * int * int
  (** [window r] is [(pos, acc, nbits)]: the offset of the next byte
      the reader would refill from, and the accumulator whose low
      [nbits] bits are buffered, next bit on top (higher bits are
      garbage). A decoder that takes the stream over from here, as
      gzip's inflate loop does after the length tables, continues from
      these three values; [r] itself is left as it was. *)
end

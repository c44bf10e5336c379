(** The bzImage container: bootstrap loader + (optionally compressed)
    kernel + relocation info.

    Mirrors the paper's Figure 2: a bzImage concatenates a small bootstrap
    loader program with a compressed blob holding the kernel ELF and its
    relocation table. Two link variants reproduce §3.3:

    - {!Standard}: the payload is compressed with a chosen codec (the
      paper's bzImage experiments use the six schemes of Figure 3; "none"
      gives the unoptimized compression-none kernel, which must still be
      copied to its run location).
    - {!None_optimized}: the payload is stored uncompressed and the image
      is padded so the embedded kernel lands already aligned to
      MIN_KERNEL_ALIGN at its run address — eliminating both the
      copy-out-of-the-way and the decompression copy.  *)

exception Malformed of string

type variant = Standard | None_optimized

val variant_name : variant -> string

val of_method : string -> string * variant
(** [of_method m] is the codec and link variant a bzImage boot method
    names: "none-opt" is [("none", None_optimized)], the aligned
    uncompressed link; any other method is a codec name, linked
    {!Standard}. *)

type unpacked = {
  image : bytes;
      (** [vmlinux ‖ relocs], exactly [vmlinux_len + relocs_len] bytes,
          CRC-verified against the codec frame *)
  relocs : bytes;
      (** the relocation table alone (a copy of [image]'s tail), or
          [Bytes.empty] when [relocs_len = 0] *)
}
(** A payload decoded once per record (see {!unpack}). Every boot of the
    record reads these bytes; none may write them. *)

type memo
(** A record's write-once slot for its {!unpacked} payload. Only
    {!unpack} fills it; {!unpacked} reads it. *)

type t = {
  variant : variant;
  codec : string;
  kernel_name : string;
  entry : int;  (** link-time entry VA of the embedded kernel *)
  stub : bytes;  (** the bootstrap loader program *)
  payload : bytes;  (** framed codec output of [vmlinux ‖ relocs] *)
  vmlinux_len : int;  (** uncompressed kernel ELF length *)
  relocs_len : int;  (** uncompressed relocation table length *)
  memo : memo;
      (** empty until the first {!unpack} of this record returns
          normally, then fixed for the record's lifetime *)
}

val stub_bytes : int
(** Size of the simulated bootstrap loader program (64 KiB). *)

val link : Image.built -> codec:string -> variant:variant -> t
(** [link built ~codec ~variant] packs a built kernel into a bzImage.
    [None_optimized] requires [codec = "none"]; raises
    [Invalid_argument] otherwise. *)

val encode : t -> bytes
(** [encode t] serializes: header, stub, (alignment padding for
    {!None_optimized}), payload. *)

val decode : bytes -> t
(** [decode b] parses {!encode}'s output; raises {!Malformed} on bad
    magic, truncation, or a 64-bit header field of 2^62 or more. *)

val payload_file_offset : t -> int
(** [payload_file_offset t] is where the payload starts in the encoded
    image — what a monitor needs to place the embedded kernel at an
    aligned physical address for the optimized variant. *)

val unpack_payload_into : t -> dst:bytes -> dst_off:int -> unit
(** [unpack_payload_into t ~dst ~dst_off] decompresses the payload
    straight into [dst] at [dst_off] — exactly
    [vmlinux_len + relocs_len] bytes (vmlinux then relocs, as
    concatenated at link time) with no intermediate allocation. This is
    the {e data} transformation; the bootstrap loader simulation charges
    decompression {e time}.
    Raises [Imk_compress.Codec.Corrupt] on a damaged payload and
    {!Malformed} if the decoded length contradicts the image header.
    On failure [dst] may hold a partial decode inside the window and
    nothing outside it. *)

val unpack : t -> unpacked
(** [unpack t] is [t]'s payload decoded and split — the record's memo
    when it holds one, otherwise a fresh {!unpack_payload_into} whose
    result the memo then keeps. The memo is write-once and race-free
    (one [Atomic.compare_and_set]; a decode that loses the race returns
    the winner's bytes, which are identical), and only a decode that
    returned normally is stored: a damaged payload raises exactly as
    {!unpack_payload_into} does, on every call, and leaves the memo
    empty. {!decode} builds a fresh record per call, so a boot path that
    decodes the image per boot decodes the payload per boot too, and
    one that shares a record across boots (the monitor's boot-plan
    cache) decodes it once. *)

val unpacked : t -> unpacked option
(** [unpacked t] is [t]'s memo, if a decode has filled it. *)

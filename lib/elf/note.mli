(** ELF note sections.

    §4.3 closes with: the kernel constants the monitor needs
    (CONFIG_PHYSICAL_START/ALIGN, [__START_KERNEL_map],
    KERNEL_IMAGE_SIZE) "could be prepended to the kernel binary as an ELF
    note, making them easy to retrieve" — instead of hardcoding them.
    This module implements standard ELF note encoding (4-byte-aligned
    name/desc records) plus the concrete KASLR-constants note the
    synthetic kernels carry in a [.note.kaslr] section, which the monitor
    reads and checks before randomizing. *)

type t = { owner : string; note_type : int; desc : bytes }

val encode : t -> bytes
(** Standard layout: namesz, descsz, type, NUL-terminated owner padded to
    4 bytes, desc padded to 4 bytes. *)

val decode : bytes -> t
(** Raises {!Types.Malformed} on truncation or inconsistent sizes. *)

(** {1 The KASLR-constants note} *)

val kaslr_owner : string
(** ["IMK-KASLR"]. *)

val kaslr_note_type : int

type kaslr_constants = {
  phys_start : int;  (** CONFIG_PHYSICAL_START *)
  phys_align : int;  (** CONFIG_PHYSICAL_ALIGN *)
  kmap_base : int;  (** __START_KERNEL_map *)
  image_size_max : int;  (** KERNEL_IMAGE_SIZE (the fixmap limit) *)
}

val encode_kaslr : kaslr_constants -> t
val decode_kaslr : t -> kaslr_constants
(** Raises {!Types.Malformed} if the note is not a KASLR-constants note,
    or if a field is 2^62 or more and so does not fit in a native int. *)

val section_name : string
(** [".note.kaslr"]. *)

(** The [relocs] tool: regenerate a relocation table from a vmlinux.

    Paper §4.3: "the relocs tool in the Linux source tree can take a
    vmlinux.bin as input and generate its respective vmlinux.relocs file".
    This is the equivalent for synthetic kernels — it parses the ELF,
    walks the self-describing function encodings in the text section(s),
    and rebuilds the same table {!Image.build} emitted, without access to
    the build-time graph. Exposed as the [relocs] CLI in [bin/]. *)

exception Unsupported of string
(** Raised when the image lacks the structures this tool needs (e.g. not
    one of our synthetic kernels). *)

val extract : bytes -> Imk_elf.Relocation.table
(** [extract vmlinux] regenerates the relocation table: text call sites,
    the .rodata pointer table and the .kallsyms base. Raises
    {!Unsupported}, with a message naming the record, on an image it
    cannot read: not an ELF, a missing section, a bad function header, a
    site record past its section or with a bad kind code, or a .rodata
    header or count past its section. *)

val walk_functions :
  Imk_elf.Types.t -> f:(section_va:int -> fn_off:int -> id:int -> size:int -> n_sites:int -> data:bytes -> unit) -> unit
(** [walk_functions elf ~f] visits each encoded function: its containing
    section's VA, its byte offset within that section's data, and its
    decoded header. Shared with the FGKASLR randomizer and the guest
    integrity checks. Raises {!Unsupported} on a malformed function
    header (a bad magic, one of 2^62 or more included, or a size that
    escapes the section). *)

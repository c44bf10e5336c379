(** Little-endian integer codecs over [bytes], plus blit/fill helpers.

    All multi-byte accessors are little-endian, matching the x86_64 ELF and
    boot-protocol structures manipulated throughout the project. Offsets are
    byte offsets; out-of-range accesses raise [Invalid_argument] (the
    underlying stdlib behaviour). *)

val get_u8 : bytes -> int -> int
(** [get_u8 b off] reads one byte as an unsigned integer in [0, 255]. *)

val set_u8 : bytes -> int -> int -> unit
(** [set_u8 b off v] writes the low 8 bits of [v] at [off]. *)

val get_u16 : bytes -> int -> int
(** [get_u16 b off] reads a little-endian unsigned 16-bit integer. *)

val set_u16 : bytes -> int -> int -> unit
(** [set_u16 b off v] writes the low 16 bits of [v] little-endian. *)

val get_u32 : bytes -> int -> int
(** [get_u32 b off] reads a little-endian unsigned 32-bit integer into a
    native [int] (always exact on 64-bit OCaml). *)

val set_u32 : bytes -> int -> int -> unit
(** [set_u32 b off v] writes the low 32 bits of [v] little-endian. *)

val get_i64 : bytes -> int -> int64
(** [get_i64 b off] reads a little-endian 64-bit integer. *)

val get_addr : bytes -> int -> int
(** [get_addr b off] reads a 64-bit little-endian value as a native [int].
    Raises [Invalid_argument] if the value does not fit in 62 bits; guest
    addresses in this project always do. *)

val set_addr : bytes -> int -> int -> unit
(** [set_addr b off v] writes the non-negative native int [v] as a
    little-endian 64-bit value. *)

val get_u32_signed : bytes -> int -> int
(** [get_u32_signed b off] reads a little-endian 32-bit value,
    sign-extended. Used for 32-bit inverse relocations which may hold
    negative displacements. *)

val blit_string : string -> bytes -> int -> unit
(** [blit_string s dst off] copies all of [s] into [dst] at [off]. *)

val fill_zero : bytes -> int -> int -> unit
(** [fill_zero b off len] zeroes [len] bytes starting at [off]. *)

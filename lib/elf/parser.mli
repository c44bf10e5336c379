(** ELF64 parsing.

    Inverts {!Writer.write}: reads the header, program headers, section
    headers, section data and the symbol table, returning the same
    {!Types.t} the writer consumed (the NULL section and the three
    generated table sections are stripped). Both the monitor and the
    bootstrap loader use this to load kernels, so malformed input must
    fail with a typed error rather than produce a half-loaded kernel. *)

exception Malformed of string
(** Raised on any structural problem: bad magic, wrong class, truncated
    tables, out-of-range offsets, 64-bit fields too large for a native
    int. The same exception as {!Types.Malformed}, shared by every
    [Imk_elf] decoder — existing handlers keep working. *)

val parse : bytes -> Types.t
(** [parse b] parses a full ELF image. *)

val is_elf : bytes -> bool
(** [is_elf b] checks the magic without raising. *)

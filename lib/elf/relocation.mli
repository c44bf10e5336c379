(** Relocation tables — the [vmlinux.relocs] companion file.

    Linux's build appends relocation information to the kernel image before
    compression (paper §2.2, Figure 2); the same data can be produced
    separately by the in-tree [relocs] tool, which is how the paper's
    modified Firecracker receives it (§4.3, Figure 8). The table divides
    entries into the three kinds the bootstrap loader distinguishes
    (§3.2):

    - 64-bit absolute addresses that get the offset {e added};
    - 32-bit absolute addresses that get the offset {e added};
    - 32-bit {e inverse} addresses that get the offset {e subtracted}.

    Each entry records the link-time virtual address of the {e site} — the
    location in the kernel image holding the value to patch. *)

exception Bad_table of string
(** A corrupt relocs file: bad magic, truncated header or entries, a site
    address outside the native-int range. Typed (rather than
    [Invalid_argument]) so the boot-failure taxonomy can classify it and
    a supervisor can fall back to re-deriving the table from the ELF. *)

type kind = Abs64 | Abs32 | Inv32

val kind_name : kind -> string

type table = {
  abs64 : int array;  (** site vaddrs of 64-bit absolute relocations *)
  abs32 : int array;  (** site vaddrs of 32-bit absolute relocations *)
  inv32 : int array;  (** site vaddrs of 32-bit inverse relocations *)
}

val empty : table

val entry_count : table -> int
(** [entry_count t] is the total number of entries across the three
    kinds — the unit of relocation-handling cost. *)

val iter : table -> f:(kind -> int -> unit) -> unit
(** [iter t ~f] visits every entry (all abs64, then abs32, then inv32). *)

val sorted_dedup_invariant : table -> bool
(** [sorted_dedup_invariant t] checks each kind's sites are strictly
    increasing — the form the kernel build emits and property tests
    expect. *)

val encode : table -> bytes
(** [encode t] serializes to the on-disk .relocs format: magic, three
    counts, then the site arrays as 64-bit little-endian values. *)

val decode : bytes -> table
(** [decode b] parses {!encode}'s output. Raises {!Bad_table} on bad
    magic or truncation (a corrupt relocs file must fail loudly — silently
    mis-relocating a kernel is the worst possible outcome). *)

val size_bytes : table -> int
(** [size_bytes t] is the encoded size, reported in Table 1. *)

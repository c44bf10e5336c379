(** Boot-time system information: the zero page / PVH start info.

    §2.2: direct-boot protocols differ mainly in "how boot-time system
    information is conveyed to the nascent kernel". This module is that
    information: the kernel command line, the e820 memory map, and the
    initrd location, written into guest memory by the monitor before
    entry (at the conventional real-mode addresses) and read back by the
    bootstrap loader (which honours [nokaslr]/[nofgkaslr]) and by the
    booting kernel (which validates it — a corrupt zero page is a
    non-booting guest).

    The two protocols share content and differ in magic and layout
    framing; both encodings round-trip through {!write}/{!read}. *)

type protocol = Proto_linux64 | Proto_pvh

type e820_entry = {
  base : int;
  size : int;
  usable : bool;  (** usable RAM vs reserved *)
}

val e820_of_mem : mem_bytes:int -> e820_entry list
(** The classic PC map: usable low memory under 640 KiB, the reserved
    EBDA/ROM hole up to 1 MiB, usable RAM above. *)

type t = {
  proto : protocol;
  cmdline : string;
  e820 : e820_entry list;
  initrd : (int * int) option;  (** guest-phys address and length *)
}

val zero_page_pa : int
(** Where the structure lives: 0x7000, in the traditional setup area. *)

val cmdline_pa : int
(** Where the command-line string lives: 0x20000. *)

val max_cmdline : int
(** Longest accepted command line (2047 bytes, as in Linux). *)

exception Invalid of string
(** Raised by {!read}/{!validate} on a corrupt structure, and by {!write}
    on an over-long command line or too many e820 entries. *)

val write : Imk_memory.Guest_mem.t -> t -> unit
(** [write mem t] encodes the structure at {!zero_page_pa} and the
    command line at {!cmdline_pa}. *)

val read : Imk_memory.Guest_mem.t -> t
(** [read mem] decodes whatever is at {!zero_page_pa}. *)

val validate : Imk_memory.Guest_mem.t -> mem_bytes:int -> t
(** [validate mem ~mem_bytes] is {!read} plus the checks a kernel
    performs before trusting the map: e820 entries in-bounds and
    non-overlapping, usable memory covering most of the guest, initrd
    (if any) inside usable RAM. *)

val has_flag : t -> string -> bool
(** [has_flag t "nokaslr"] — whitespace-delimited command-line flag
    lookup, as the kernel's early parameter parsing does. *)

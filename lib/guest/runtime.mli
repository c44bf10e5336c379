(** Guest kernel execution: boot-time integrity verification.

    The honesty mechanism of the whole reproduction (DESIGN.md §4.2): the
    "kernel" boots by walking its own pointers. Starting from the entry
    point it follows every call site — decoding the three relocation-site
    kinds exactly as encoded — and checks that each target address lands
    on the header magic of the expected function. A single missed,
    double-applied or mis-displaced relocation sends a pointer into
    filler bytes and raises {!Panic}, the analogue of the kernel crashing
    during boot. The rodata pointer table, the exception table and (when
    trusted) kallsyms and ORC are verified the same way. *)

exception Panic of string
(** The guest kernel crashed: a pointer did not land where it should. *)

type verify_stats = {
  functions_visited : int;
  sites_verified : int;
  rodata_verified : int;
  extab_verified : int;
  kallsyms_verified : int;  (** 0 when kallsyms was left stale *)
  orc_verified : int;  (** 0 when the table is absent or stale *)
}

val fn_layout : Imk_memory.Guest_mem.t -> Boot_params.t -> int array
(** [fn_layout mem params] is the per-function randomized virtual address
    (index = function id), recovered by the same pointer walk
    {!verify_boot} performs. Two boots landed every function in the same
    place iff their layouts are equal — the differential oracle's
    (DESIGN.md §8) view of "same FGKASLR shuffle". Raises {!Panic} on a
    mis-loaded kernel, like verification. *)

val verify_boot : Imk_memory.Guest_mem.t -> Boot_params.t -> verify_stats
(** [verify_boot mem params] walks the whole kernel. The call graph is
    strongly connected, so [functions_visited] must equal
    [params.kernel.n_functions]; anything less means unreachable
    (mis-loaded) code and raises {!Panic}. Verification is free on the
    virtual clock: it stands for execution whose time is already modelled
    by {!Linux_boot}. *)

val fn_at : Imk_memory.Guest_mem.t -> Boot_params.t -> va:int -> int option
(** [fn_at mem params ~va] is the id of the function whose header starts
    exactly at [va], if the magic matches — a non-raising probe. *)

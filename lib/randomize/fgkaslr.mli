(** Function-granular KASLR: section shuffling, displacement mapping and
    table fixups.

    Follows the in-kernel FGKASLR implementation the paper adapts (§3.2,
    §4.3): function sections are shuffled and re-laid-out contiguously,
    every relocation looks up the moved section its value points into
    and displaces it, and the address-ordered tables (kallsyms, the
    exception table, optionally the ORC unwind table) are rewritten and
    re-sorted. Linux finds the section by a binary search per entry, and
    the virtual clock still charges that search
    ({!Imk_vclock.Cost_model.fg_reloc_cost}); on the host a lookup in
    random order reads a bucket index over the sections' link
    addresses, O(1) per entry, and a walk in ascending order (relocation
    sites, section placement) reads a {!mapper}, a cursor that steps
    through the sections in link order. The {!plan} is the shared data
    structure; the monitor and the bootstrap loader differ only in how
    they move the bytes and what they charge for it. A plan has an image
    half, the link-ordered {!table} a monitor builds once per kernel
    image, and a boot half, the shuffled [order] and the [new_va]s it
    lays out, drawn per boot by {!draw}. *)

type index
(** The lookup structure {!displace} reads: at most 2 x [count] buckets
    over the sections' link addresses, each naming the last section
    starting at or below the bucket's start. *)

type plan = {
  count : int;
  order : int array;
      (** shuffled permutation: [order.(k)] is the rank of the section
          placed k-th *)
  old_va : int array;
      (** per rank; sections are ranked in link order, so this is
          non-decreasing *)
  size : int array;  (** per rank *)
  new_va : int array;  (** per rank *)
  index : index;
}

type table
(** The image half of a plan: the sections' link VAs and sizes in link
    order, their bucket index, and whether they passed validation.
    Immutable, so one table serves every boot of its image, across
    domains too; every plan {!draw} makes from it shares its link VAs,
    sizes and index. *)

val table : sections:(int * int) array -> table
(** [table ~sections] is the table of the [(old_va, size)] sections, as
    {!Loadelf.fn_sections} lists them. It never raises: sections that
    overlap or are unsorted make a table that {!draw} rejects, so a
    kernel whose function sections are corrupt still boots without
    FGKASLR. *)

val draw : Imk_entropy.Prng.t -> table -> text_base:int -> plan
(** [draw rng t ~text_base] shuffles [t]'s sections and assigns new VAs
    contiguously (16-aligned) from [text_base]: the per-boot half of a
    plan, allocating only [order] and [new_va]. Raises
    [Invalid_argument] before drawing anything if [t]'s sections overlap
    or are unsorted — symptoms of a corrupt section table. *)

val make_plan :
  Imk_entropy.Prng.t -> sections:(int * int) array -> text_base:int -> plan
(** [make_plan rng ~sections ~text_base] is
    [draw rng (table ~sections) ~text_base]: the same draws from [rng],
    the same plan and the same [Invalid_argument]. *)

val displace : plan -> int -> int
(** [displace plan va] maps a link-time VA to its post-shuffle VA: VAs
    inside a moved section get that section's displacement; all other
    VAs are unchanged. The section is the last one in link order
    starting at or below [va] — of sections sharing a start, a valid
    table lets only the last be non-empty, so the empty ones never
    claim a VA — found by a binary search between the entries of [va]'s bucket
    and the next one, so a lookup allocates nothing and costs O(1) on a
    plan whose sections spread evenly (O(log n) on a skewed one). The
    global KASLR delta is {e not} included — compose with
    {!Kaslr.delta_new_va}. *)

type mapper
(** A cursor over a plan's link-ordered sections: the rank of the
    section its last query resolved to. *)

val mapper : plan -> mapper
(** [mapper plan] is a fresh cursor at the first section. It is mutable
    state: one per walk, never shared across domains. *)

val map : mapper -> int -> int
(** [map m va] is [displace plan va], for every [va] in any order. A
    query in the cursor's section or the next one moves the cursor
    there; a query below the cursor, or further ahead, reads the bucket
    index instead. So an ascending sequence of queries (a kind's
    relocation sites, the sections in file order) mostly stays on the
    cursor, costs O(1) per query whatever the order, and allocates
    nothing. *)

val displacement_pairs : plan -> (int * int * int) array
(** [displacement_pairs plan] lists [(old_va, new_va, size)] per section
    in placement order — the contents of the "setup data" blob a monitor
    can expose to the guest for deferred kallsyms fixup (§4.3 ablation).
    A boot encodes that blob straight from the plan's arrays
    ([Imk_guest.Boot_params.setup_data_of_plan]), without this array of
    tuples. *)

val plan_of_pairs : (int * int * int) array -> plan
(** [plan_of_pairs pairs] reconstructs a plan from
    {!displacement_pairs} output — how the guest's deferred kallsyms
    fixup rebuilds the displacement map from the setup-data blob. The
    pairs are ranked by [old_va], then by size, then by their position in
    [pairs] (the link order {!Loadelf.fn_sections} gives), and [order]
    points back at them, so [displacement_pairs (plan_of_pairs p)] is
    [p]. *)

val identity_plan : sections:(int * int) array -> text_base:int -> plan
(** [identity_plan] builds a no-shuffle plan (every displacement zero) —
    what an fgkaslr-built kernel does when randomization is disabled on
    the command line: it still parses sections, but nothing moves. *)

(** {1 Table fixups} — operate on the loaded tables in guest memory.
    [pa] is the guest-physical address of the section; entries use the
    encodings documented in {!Imk_kernel.Image}. Each fixup reads its
    entries into one flat int array, a row per entry, and sorts the rows
    in place with {!sort_rows}; no entry is boxed. *)

val sort_rows : int array -> width:int -> int -> unit
(** [sort_rows rows ~width n] sorts the first [n] rows of [width] ints
    each, laid out one after another in [rows], in lexicographic order
    of their fields — in place, allocating nothing. The sort is not
    stable, so rows that compare equal must be interchangeable: the
    fixups make every field of an entry a key. *)

val fixup_kallsyms : Imk_memory.Guest_mem.t -> pa:int -> plan -> unit
(** Rewrite each symbol's base-relative offset by its function's
    displacement, then re-sort by offset. Raises [Kaslr.Reloc_error] on a
    malformed table. *)

val fixup_extab : Imk_memory.Guest_mem.t -> pa:int -> extab_va:int -> plan -> unit
(** Adjust the self-relative fault/handler displacements by the moved
    functions' displacements and re-sort by fault address. [extab_va] is
    the table's current VA (needed because entries are self-relative). *)

val fixup_orc : Imk_memory.Guest_mem.t -> pa:int -> orc_va:int -> plan -> unit
(** Same treatment for the ORC unwind table. The paper's in-monitor
    implementation deliberately omits this (§4.3); the ablation bench
    measures what it would cost. *)

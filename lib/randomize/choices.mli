(** A pinned entropy schedule for differential boot oracles.

    The monitor and the bootstrap loader share {!Kaslr} and {!Fgkaslr},
    but they consume randomness differently: the monitor draws a physical
    base, then a virtual base, then the shuffle from one host-pool stream,
    while the loader draws only a virtual base and the shuffle from its
    own rdrand-style stream. Because {!Imk_entropy.Prng.next_aligned} and
    {!Imk_entropy.Prng.next_int} use rejection sampling, the two streams
    cannot be aligned by seed arithmetic — the draw {e positions} differ.

    [Choices] factors the schedule instead: one independent generator per
    {e decision} (physical base, virtual base, section shuffle), all
    derived from a single seed. A boot given a schedule makes the same
    virtual-base and shuffle decisions whether the monitor or the loader
    executes it. Everything after offset selection — relocation
    application and table fixups — is one routine both principals call
    ([Imk_bootstrap.Loader.relocate]), so the cross-path oracle
    (`Imk_check`, DESIGN.md §8), which boots both paths on one schedule
    and asserts layout equality, checks what still differs: the entropy
    streams, placement, decompression, how each path parses the ELF, and
    how a [Vm_config] maps onto the loader's policy.

    Production boots never construct one: without a schedule both
    principals keep their historical per-principal streams, bit for
    bit. *)

type t

val of_seed : int64 -> t
(** [of_seed seed] fixes the schedule. Cheap; the decision streams are
    created on demand. *)

val seed : t -> int64

val physical_rng : t -> Imk_entropy.Prng.t
(** Fresh generator for the physical-base decision. Only the monitor
    draws from it (the loader always loads at the default physical
    base), which is exactly why it gets a stream of its own: consuming
    it must not shift the virtual-base draw. *)

val virtual_rng : t -> Imk_entropy.Prng.t
(** Fresh generator for the virtual-base decision — same first draw on
    every call, so monitor and loader agree on the KASLR delta. *)

val shuffle_rng : t -> Imk_entropy.Prng.t
(** Fresh generator for the FGKASLR section shuffle. *)

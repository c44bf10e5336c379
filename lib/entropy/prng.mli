(** Deterministic pseudo-random number generation.

    The monitor's randomization (paper §4.3) pulls randomness from the host
    entropy pool; for reproducible experiments every generator here is
    seeded explicitly. The implementation is Xoshiro256** seeded through
    SplitMix64, the de-facto standard pairing for fast non-cryptographic
    generation with full 64-bit state mixing. *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] builds a generator whose 256-bit state is derived from
    [seed] with SplitMix64, so nearby seeds still yield unrelated
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t]'s stream. Used to
    hand each simulated VM instance its own randomness without coupling
    experiment ordering to layout choices. *)

val next_int64 : t -> int64
(** [next_int64 t] is the next 64-bit output of Xoshiro256**. *)

val next_int : t -> int -> int
(** [next_int t bound] is a uniform integer in [0, bound). Raises
    [Invalid_argument] if [bound <= 0]. Uses rejection sampling, so the
    distribution is exactly uniform. Allocates nothing: the state is a
    byte buffer stepped in unboxed locals, so hot paths (per-request
    weather forecasts, per-charge jitter, FGKASLR shuffles) may draw
    freely. *)

val next_float : t -> float
(** [next_float t] is a uniform float in [0, 1). *)

val next_aligned : t -> lo:int -> hi:int -> align:int -> int
(** [next_aligned t ~lo ~hi ~align] is a uniform multiple of [align] in
    [lo, hi]. This is the primitive behind KASLR offset selection: Linux
    picks a slot index first and multiplies by the alignment, which keeps
    every aligned offset equiprobable. Raises [Invalid_argument] when no
    aligned value fits or [align <= 0]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** [gaussian t ~mean ~stddev] draws from a normal distribution
    (Box–Muller). Used by the cost model to add measurement-like jitter. *)

(** A pool that recycles {!Guest_mem} buffers across boots.

    Supervised boots (fault-injected attempts, snapshot restores),
    diffcheck's arena-fresh oracle and the host-time workloads in [perf/]
    borrow their guest memory here; the plain repeated-boot runners give
    each boot a fresh guest instead. Guest memory is sparse, so a fresh
    [Guest_mem.create] is cheap; what a recycled guest still saves is its
    chunks and its tracker. A boot allocates a 64 KiB storage chunk on
    each first write; a recycled guest takes those from the spare list
    its last {!Guest_mem.scrub} filled, so
    after warm-up a boot allocates no guest memory at all. The arena
    scrubs only the released guest's dirty ranges (the bytes the previous
    boot wrote), so a recycled buffer is observably identical to a fresh
    [Guest_mem.create ~size]: all-zero and with an empty dirty extent.
    This is also a security property of the simulator — no bytes of a
    previous guest may survive into the next one — and is enforced by a
    qcheck property in [test/test_memory.ml].

    Virtual-clock accounting is unaffected: boots charge zeroing costs
    through [Imk_vclock.Charge] exactly as before; only real allocation
    work is removed ("virtual time, real work", DESIGN.md §4.1).

    All operations are thread-safe; one arena may serve a whole domain
    pool. *)

type t

val create : unit -> t
(** [create ()] makes an empty arena. At most
    [max 2 (Domain.recommended_domain_count ())] free buffers are retained
    per distinct size — enough for every worker of a default-size domain
    pool — and at most 8 GiB in total, counting each guest at its full
    size (a bound on what its chunks hold); releases beyond either bound
    simply drop the buffer for the GC, so the arena degrades to
    allocate-per-boot behaviour rather than hoarding memory. *)

val borrow : t -> size:int -> Guest_mem.t
(** [borrow t ~size] returns an all-zero guest memory of exactly [size]
    bytes — recycled if a buffer of that size is free, freshly allocated
    otherwise. The caller owns it until {!release}. *)

val release : t -> Guest_mem.t -> unit
(** [release t mem] scrubs [mem] (zeroing its dirty extent) and returns
    it to the pool. The caller must not use [mem] afterwards. Buffers
    borrowed elsewhere may also be released here, as long as every write
    to them went through the [Guest_mem] API. *)

val with_buffer : t -> size:int -> (Guest_mem.t -> 'a) -> 'a
(** [with_buffer t ~size f] brackets {!borrow} and {!release}: [f] runs
    with a fresh-equivalent buffer, and the buffer is scrubbed and
    returned to the pool whether [f] returns or raises. This is the
    exception-safe way to run a boot against the arena — a fault-injected
    boot that dies mid-run must not leak its buffer or poison the pool
    with a dirty one. [f] must not retain the buffer past its return. *)

val pooled_bytes : t -> int
(** Total bytes currently held in free lists. *)

val stats : t -> int * int
(** [(hits, misses)] — borrows served from the pool vs fresh
    allocations, for telemetry and tests. *)

(** The jobs-invariance protocol, owned once (DESIGN.md §11).

    Every repeated-boot campaign in the harness — [Boot_runner.boot_many],
    [Boot_runner.boot_contended], the figures' cell grid ([grid] in
    [Experiments]: cell 0 primes, every later cell boots on a clone), and
    the supervised fault, resilience and fleet cells ([run_cells], primed
    the same way) and diffcheck's sweep — fans its work out through this
    module and nowhere else, so "the output is bit-identical for any
    [--jobs]" is enforced in one place:

    - a task is an index, and everything it does must be a pure function
      of that index (seeds, armed faults, weather) plus read-only shared
      inputs (built images, the content-addressed plan cache, the
      scrubbing arena);
    - a campaign that boots against a page cache primes it sequentially
      on the calling domain, and every later task receives its own
      [Page_cache.clone] of the primed cache as an argument;
    - results come back in index order, so the caller's aggregation is
      the sequential fold whatever the fan-out was. *)

val map : jobs:int -> ?prime:int -> tasks:int -> (int -> 'a) -> 'a array
(** [map ~jobs ~prime ~tasks f] is [[| f 0; ...; f (tasks-1) |]]. Tasks
    [0 .. prime-1] (default none) run first, in index order on the
    calling domain; the rest are computed on up to [jobs] domains
    ([jobs < 1] means 1). For tasks that build all of their mutable state
    themselves (private disks and caches, armed faults, fleets,
    simulators). A primed task also fixes what an observer sees first:
    the [--trace] tap keeps the first finished boot, and with
    [~prime:1] that is task 0's first boot at any [jobs]. *)

val run :
  jobs:int ->
  ?prime:int ->
  cache:Imk_storage.Page_cache.t ->
  tasks:int ->
  (cache:Imk_storage.Page_cache.t -> int -> 'a) ->
  'a array
(** [run ~jobs ~prime ~cache ~tasks f] is {!map} with a page cache:
    [[| f ~cache:c0 0; ...; f ~cache:cn (tasks-1) |]]. The primed tasks
    run against [cache] itself: they prime it (and any lazy workspace
    state). Every later task gets a fresh clone of the primed cache. A
    boot's read set does not depend on its seed, so after one priming
    boot the cache is a fixed point for that configuration and each clone
    sees exactly the state the sequential run would have. *)

(** The jobs-invariance protocol, owned once (DESIGN.md §11).

    Every repeated-boot campaign in the harness — [Boot_runner.boot_many],
    [Boot_runner.boot_contended], fig9's cells, the supervised fault,
    resilience, diffcheck and fleet sweeps — fans its work out through
    this module and nowhere else, so "the output is bit-identical for any
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

val map : jobs:int -> tasks:int -> (int -> 'a) -> 'a array
(** [map ~jobs ~tasks f] is [[| f 0; ...; f (tasks-1) |]], computed on up
    to [jobs] domains ([jobs < 1] means 1). For tasks that build all of
    their mutable state themselves (private disks and caches, armed
    faults, fleets, simulators). *)

val run :
  jobs:int ->
  ?prime:int ->
  cache:Imk_storage.Page_cache.t ->
  tasks:int ->
  (cache:Imk_storage.Page_cache.t -> int -> 'a) ->
  'a array
(** [run ~jobs ~prime ~cache ~tasks f] is
    [[| f ~cache:c0 0; ...; f ~cache:cn (tasks-1) |]]. Tasks
    [0 .. prime-1] (default none) run first, in index order on the
    calling domain, against [cache] itself: they prime it (and any lazy
    workspace state). Every later task gets a fresh clone of the primed
    cache and the tasks fan out over [jobs] domains. A boot's read set
    does not depend on its seed, so after one priming boot the cache is
    a fixed point for that configuration and each clone sees exactly the
    state the sequential run would have. *)

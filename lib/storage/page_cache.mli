(** The host page cache (whole-file granularity).

    The paper's methodology warms the cache by booting each kernel five
    times and, for the cold-cache experiments, drops pagecache/dentries/
    inodes before each boot (§2.2). Reads through this module report
    whether they hit the cache, so the boot path can charge SSD or memcpy
    rates accordingly; a read also populates the cache, as in Linux. *)

type t

val create : Disk.t -> t

val clone : t -> t
(** [clone t] is an independent cache with the same warm set, sharing the
    backing disk. The parallel boot harness hands each worker domain its
    own clone: cache state is per-host-process in real life, but the
    cache's [Hashtbl] is not thread-safe, and per-worker clones taken
    after a priming boot make parallel runs byte-for-byte deterministic. *)

val read : t -> string -> bytes * bool
(** [read t name] returns [(contents, was_cached)] and marks the file
    cached. Raises [Not_found] for unknown files. *)

val warm : t -> string -> unit
(** [warm t name] pre-populates the cache (the state a warm-up boot leaves). *)

val drop_caches : t -> unit
(** [drop_caches t] empties the cache — the cold-cache protocol. *)

val is_cached : t -> string -> bool

val disk : t -> Disk.t
(** The backing disk (for existence checks that must not populate the
    cache). *)

(** The host's storage: named immutable images (kernels, relocs files,
    rootfs). Reads go through {!Page_cache}, which decides whether a read
    is served from SSD or memory — the cached/uncached distinction at the
    heart of the paper's Figure 4. *)

type t

val create : unit -> t

val add : t -> name:string -> bytes -> unit
(** [add t ~name data] stores an image. Replaces any previous image of the
    same name (and the page cache must be invalidated by the caller —
    {!Page_cache.drop_caches} — as a rewritten file's cached pages are
    stale). *)

val find : t -> string -> bytes
(** [find t name] returns the image contents (shared, do not mutate).
    Raises [Not_found]. When a read fault is registered for [name]
    ({!set_fault}), the fault function is applied to a private copy and
    its result returned — the stored image itself is never mutated. *)

val set_fault : t -> name:string -> (bytes -> bytes) -> unit
(** [set_fault t ~name f] makes every subsequent read of [name] return
    [f (Bytes.copy stored)] — a deterministic read-corruption model
    (flaky medium, torn snapshot) for fault-injection campaigns. [f] must
    be pure: reads repeat, and repeatability is what keeps campaigns
    bit-identical across [--jobs] values. Replaces any previous fault on
    [name]. *)

val mem : t -> string -> bool
val size : t -> string -> int
val names : t -> string list

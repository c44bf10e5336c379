(** A fixed-size domain pool with a chunked work queue.

    The experiment harness fans independent boots and experiment cells out
    over OCaml 5 domains. The pool is deliberately minimal: a task is an
    integer index, workers pull chunks of indices off a mutex-guarded
    queue, and every result is stored in its task's slot so the caller
    sees results in task order regardless of scheduling. Callers are
    responsible for giving each task its own mutable state (caches,
    workspaces). The harness reaches it only through
    [Imk_harness.Campaign]. *)

val map_tasks : ?jobs:int -> tasks:int -> (int -> 'a) -> 'a array
(** [map_tasks ~jobs ~tasks f] computes [|f 0; ...; f (tasks-1)|] on a
    pool of at most [jobs] domains. The pool is additionally clamped to
    [Domain.recommended_domain_count ()]: extra domains on a smaller
    machine only add stop-the-world barrier latency, and the clamp is
    observationally invisible (results are slotted per task). With an
    effective [jobs <= 1] (the default) or [tasks <= 1] everything runs
    inline on the calling domain, in task order — the deterministic
    reference path. If any task raises, no new chunks are
    issued and the first exception is re-raised (with its backtrace)
    after all workers join. *)

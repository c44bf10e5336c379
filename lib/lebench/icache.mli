(** Instruction-locality model.

    §5.4 attributes the FGKASLR-capable kernels' runtime cost to "a
    slightly higher percentage of L1 cache misses ... frequently used
    functions that are usually grouped together being separated". The
    model makes that mechanical: a workload's hot path is a set of
    functions the linker placed contiguously (consecutive ids in the
    synthetic kernel); the metric is how many 4 KiB i-cache/iTLB reach
    pages their entry points span in the {e actual booted layout}. A
    shuffled layout spans more pages, and the slowdown is proportional to
    the excess. Plain KASLR shifts all functions together, so the span —
    and thus the predicted slowdown — is unchanged, which is exactly the
    paper's finding. *)

val hot_set : Workloads.t -> n_functions:int -> int array
(** [hot_set w ~n_functions] is the deterministic set of function ids on
    [w]'s hot path: a contiguous id range seeded by the workload name. *)

val pages_spanned : fn_va:int array -> hot:int array -> int
(** [pages_spanned ~fn_va ~hot] counts distinct 4 KiB pages hit by the
    hot functions' entry points. *)

val slowdown : Workloads.t -> fn_va:int array -> float
(** [slowdown w ~fn_va] is the multiplicative latency factor (≥ 1.0) of
    running [w] against the layout [fn_va] (function id → VA). Calibrated
    so a full shuffle of a microVM kernel costs ≈7% on i-cache-bound
    tests and a layout-preserving shift costs 0%. *)

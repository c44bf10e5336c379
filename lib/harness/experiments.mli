(** Experiment drivers — one per table/figure of the paper.

    Each returns an {!output}: a rendered table, claim-check notes (the
    "who wins, by what factor" assertions EXPERIMENTS.md records) and the
    typed verdicts of the correctness campaigns. [runs] defaults to 20
    per configuration for most drivers; the paper used 100, and
    [bench/main.exe --runs 100] reproduces that. Everything else a
    driver needs from the invocation — jobs, contention capacities, the
    trace tap, fleet requests — comes from the
    workspace's {!Workspace.run_config}.

    A boot figure (fig3, fig4, fig6, fig9's 27 solo cells, fig10, qemu and
    the kallsyms, orc, rerando, devices, unikernel and zygote ablations)
    is a list of cells — its key cells, cold or warm, and a VM template —
    run by one grid: the workspace is warmed once, then each cell gets
    one priming boot (standing in for the paper's five warm-ups; see
    {!Boot_runner}) and [runs] measured boots through {!Campaign.run}, so
    cell 0 boots first on the calling domain and every later cell on its
    own clone of the cache. Notes look
    a cell's stats up by key. Every table row and its telemetry row come
    from one sheet primitive, which labels the telemetry row with the key
    cells joined by ["/"]; only ablation-orc and ablation-zygote keep
    explicit labels that differ from their rendered keys.

    The supervised campaigns share one runner: [faults] (the
    deterministic per-kind sweep: every fault each boot path can carry),
    [resilience] (a weather sample under fleet supervision) and [fleet]'s
    calibration cells are each a list of cells — a boot path plus per-run
    fault, fault seed and cold-cache conditions — run through one
    supervised-run function that boots a fresh sparse guest per attempt,
    fanned out through one {!Campaign.map}, and judged by one
    ok/recovered/failed/silent tally and [soundness] verdict. *)

type verdict = {
  name : string;  (** what is checked, e.g. ["soundness"], ["caught: cross-path"] *)
  pass : bool;
  detail : string;  (** the measured evidence, usually also printed as a note *)
}

type output = {
  id : string;  (** "table1", "fig3", ... *)
  title : string;
  table : Imk_util.Table.t;
  notes : string list;  (** derived claims, paper-vs-measured *)
  telemetry : Telemetry.row list;
      (** the raw per-label nanosecond distributions behind the table,
          fed to {!Telemetry} as floats — never re-parsed from the
          rendered cells. Empty for experiments without boot-time rows (table1,
          fig11, security, page-sharing). *)
  verdicts : verdict list;
      (** pass/fail gates: faults, resilience and fleet hold zero silent
          successes (resilience also zero unrecovered faults); diffcheck
          holds zero divergences and every plant caught;
          security holds uniform offsets and shuffle positions, and a
          single leak exposing all functions under nokaslr and KASLR but
          under 5% under FGKASLR *)
}

val failures : output -> verdict list
(** The failing verdicts — the gate [bench/main.exe] exits 1 on. *)

val registry : (string * (?runs:int -> Workspace.t -> output)) list
(** Every experiment by id, in paper order: table1, fig3, fig4, fig5,
    fig6, fig9 (main evaluation plus a 12-boot contention row), fig10,
    fig11, qemu, throughput, security, faults, resilience, diffcheck,
    fleet and the ablations. *)

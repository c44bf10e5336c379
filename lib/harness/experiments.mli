(** Experiment drivers — one per table/figure of the paper.

    Each returns an {!output}: a rendered table, claim-check notes (the
    "who wins, by what factor" assertions EXPERIMENTS.md records) and the
    typed verdicts of the correctness campaigns. [runs] defaults to 20
    per configuration for most drivers; the paper used 100, and
    [bench/main.exe --runs 100] reproduces that. Everything else a
    driver needs from the invocation — jobs, contention capacities, the
    trace tap, diffcheck's plants, fleet requests — comes from the
    workspace's {!Workspace.run_config}. *)

type boot_row = {
  label : string;
      (** stable row key: every key cell of the table row, numeric ones
          included, joined with ["/"] — e.g. ["aws/kaslr/lz4"],
          ["aws/kaslr/256M"]. Dropping numeric key cells (an old bug)
          made sweep points collapse onto one label and silently shadow
          each other in the JSON. *)
  total : Imk_util.Stats.summary;  (** nanoseconds, across the runs *)
  phases : (string * Imk_util.Stats.summary) list;
      (** per-phase nanosecond summaries ("in-monitor", "bootstrap",
          "decompression", "linux-boot" — or finer span labels for
          span-level experiments like fig5). Phases the boot path never
          entered are absent, not zero-padded; the present phases' means
          sum to [total.mean] up to per-run phase dropout. *)
}

type verdict = {
  name : string;  (** what is checked, e.g. ["soundness"], ["caught: cross-path"] *)
  pass : bool;
  detail : string;  (** the measured evidence, also printed as a note *)
}

type output = {
  id : string;  (** "table1", "fig3", ... *)
  title : string;
  table : Imk_util.Table.t;
  notes : string list;  (** derived claims, paper-vs-measured *)
  telemetry : boot_row list;
      (** the raw per-label distributions behind the table, fed to
          {!Telemetry} as floats — never re-parsed from the rendered
          cells. Empty for experiments without boot-time rows (table1,
          fig11, security, page-sharing). *)
  verdicts : verdict list;
      (** pass/fail gates: faults, resilience and fleet hold zero silent
          successes (resilience also zero unrecovered faults); diffcheck
          holds zero divergences, or under [mutate] every plant caught *)
}

val failures : output -> verdict list
(** The failing verdicts — the gate [bench/main.exe] exits 1 on. *)

val registry : (string * (?runs:int -> Workspace.t -> output)) list
(** Every experiment by id, in paper order: table1, fig3, fig4, fig5,
    fig6, fig9 (main evaluation plus a 12-boot contention row), fig10,
    fig11, qemu, throughput, security, faults, resilience, diffcheck,
    fleet and the ablations. *)

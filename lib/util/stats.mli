(** Descriptive statistics for benchmark runs.

    The paper reports the average of 100 boots with min/max error bars
    (§5.1); [summary] captures exactly that, plus stddev and percentiles
    for the extended analyses. *)

type summary = {
  n : int;  (** number of samples *)
  mean : float;
  min : float;
  max : float;
  stddev : float;  (** population standard deviation *)
  p50 : float;  (** median *)
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary
(** [summarize xs] computes a [summary] of the samples. [stddev] is the
    population standard deviation (divide by [n], not [n - 1]) — the
    samples are the whole run set, not a draw from a larger one. Raises
    [Invalid_argument] on the empty list and on any non-finite sample
    (NaN or infinity): a non-finite measurement is an upstream bug and
    must not be averaged into telemetry. *)

val summarize_array : float array -> summary
(** [summarize_array xs] is [summarize] over an array (not modified). *)

val summarize_sorted : float array -> summary
(** [summarize_sorted xs] is [summarize_array xs] for an [xs] the caller
    has already sorted ascending, skipping the internal comparison sort.
    Hot paths that sort large integer-valued samples with a radix pass
    (e.g. fleet SLO telemetry) use this to avoid paying
    [Array.sort Float.compare]'s closure-per-comparison cost twice.
    Raises [Invalid_argument] if [xs] is empty, contains a non-finite
    sample, or is not ascending. Allocates a constant number of words
    whatever the sample count. (Moments are accumulated in array
    order, so the result can differ from [summarize_array] on the
    unsorted array by float-rounding in [mean]/[stddev] only.) *)

val empty : summary
(** [empty] is the summary of a phase with no samples: [n = 0] and every
    moment zero. Reported instead of fabricating a fake [0.] sample when
    a boot path never enters a phase (e.g. decompression on a direct
    boot). Check [n] before treating the moments as measurements. *)

val mean : float list -> float
(** [mean xs] is the arithmetic mean. Raises [Invalid_argument] on []. *)

val percentile : float array -> float -> float
(** [percentile sorted p] reads percentile [p] (in [0,100]) from an array
    that is already sorted ascending, using linear interpolation. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b]; raises [Invalid_argument] if [b = 0.]. *)

val pct_change : float -> float -> float
(** [pct_change base v] is the percentage change of [v] relative to [base],
    e.g. [pct_change 100. 104. = 4.]. *)

val pp_summary : Format.formatter -> summary -> unit
(** Pretty-printer used in experiment reports. *)

(** The deterministic serving simulator.

    One campaign cell: a virtual-time stream of boot requests
    ({!Arrival}) scheduled onto [servers] concurrent boot slots with a
    bounded warm pool ({!Pool}) and a bounded FIFO admission queue.
    Requests that find every server busy wait in the queue; requests
    that find the queue full are dropped. Every request's arrival, start
    and finish fall on the virtual clock, and the report carries
    the SLO distributions: cold vs warm sojourn, queue wait, queue
    depth, pool hit rate, drop count.

    "Virtual time, real work" at fleet scale: a million requests cannot
    each run a real boot, so service costs are drawn from calibration
    samples measured on real supervised boots ([cold_ns]), real snapshot
    restores ([warm_ns]) and real fault-laden supervised boots with
    their recovery charged ([fault_ns]) — the same split the throughput
    experiment has always used, extended with scheduling. The draw is
    cyclic by request index, so every cost is a pure function of the
    request and the run is bit-identical however the campaign fans its
    cells over domains.

    The optional {!Imk_fault.Weather} overlay reads each request's
    forecast (pure in the request index): a drawn fault serves the
    request from the [fault_ns] samples on a fresh instance (supervised
    recovery included in the calibrated cost), and a cold-cache forecast
    forces a cold start even when warm instances are idle. Weather never
    consults the pool, so pool hit/miss counters describe exactly the
    requests that were free to use it. *)

type config = {
  arrival : Arrival.model;
  seed : int;  (** arrival gaps and instance layouts derive from it *)
  requests : int;
  servers : int;  (** concurrent boot slots; >= 1 *)
  pool_capacity : int;  (** warm-pool bound ({!Pool.create}) *)
  queue_capacity : int;  (** admission-queue bound; 0 = drop when busy *)
  cold_ns : int array;  (** calibrated cold-boot costs; non-empty *)
  warm_ns : int array;  (** calibrated warm-restore costs; non-empty *)
  fault_ns : int array;
      (** calibrated fault-laden boot costs, recovery included;
          non-empty whenever [weather] is present *)
  weather : Imk_fault.Weather.t option;
  seams : Imk_fault.Inject.kind list;
      (** seams the weather draws corruptions from; order matters, keep
          it fixed across a campaign *)
}

type report = {
  requests : int;
  completed : int;  (** served to completion; [completed + dropped = requests] *)
  dropped : int;  (** rejected at a full admission queue *)
  cold_starts : int;  (** served on a fresh instance (pool miss or forced) *)
  warm_starts : int;  (** served on a pooled warm instance *)
  fault_starts : int;  (** served under an armed weather fault *)
  pool_hits : int;
  pool_misses : int;
  pool_evictions : int;
  hit_rate : float;  (** [pool_hits / (pool_hits + pool_misses)] *)
  distinct_layouts : int;
      (** distinct instance layouts that served at least one request —
          the diversity a warm pool freezes and cold boots restore *)
  sojourn : Imk_util.Stats.summary;
      (** arrival-to-finish for all completed requests, ns — the SLO a
          client observes, queueing included *)
  cold_service : Imk_util.Stats.summary;
      (** start-to-finish of cold starts alone, ns — the boot path's
          cost with congestion factored out; {!Imk_util.Stats.empty}
          when none *)
  warm_service : Imk_util.Stats.summary;
  fault_service : Imk_util.Stats.summary;
  queue_wait : Imk_util.Stats.summary;  (** ns, all completed requests *)
  queue_depth : Imk_util.Stats.summary;
      (** queue length sampled at each arrival, before admission *)
  makespan_ns : int;  (** virtual time of the last completion *)
}

val run : config -> report
(** [run config] simulates the whole request stream. Pure: equal configs
    give equal reports. Raises [Invalid_argument] on a malformed config
    (bad arrival model, [servers < 1], negative counts or capacities,
    empty sample arrays, negative sample costs). *)

val instantiation_rate : cores:int -> window_ms:float -> float array -> float
(** [instantiation_rate ~cores ~window_ms samples] is the throughput
    experiment's platform metric: each core boots back to back, drawing
    cyclically from the sampled boot-time distribution (milliseconds),
    and boots completing within [window_ms] count. The rate divides by
    the actual elapsed span — the latest counted completion across
    cores — not by the full window: the final boot of a window rarely
    lands exactly on its edge, and dividing by the window biases the
    reported boots/sec low. [0.] when no boot fits the window. Raises
    [Invalid_argument] on [cores < 1], an empty [samples], or
    non-positive samples or window (the schedule would not advance). *)

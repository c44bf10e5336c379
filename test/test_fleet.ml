(* Suite 20: the fleet serving simulator (Imk_fleet) and its harness
   wiring.

   The contracts under test: arrival gaps are pure in
   (model, seed, index); the warm pool never exceeds its bound and
   recycled memory is indistinguishable from fresh (the existing
   arena/fresh oracle — the calibration boots recycle through the
   workspace arena); the simulator is deterministic and conserves
   requests; and --exp fleet rows are bit-identical for any jobs
   fan-out, like every other experiment. *)

module Arrival = Imk_fleet.Arrival
module Pool = Imk_fleet.Pool
module Sim = Imk_fleet.Sim
module W = Imk_fault.Weather
module Inject = Imk_fault.Inject

let check = Alcotest.check
let int = Alcotest.int

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

(* --- arrival models --- *)

let arb_model_seed_index =
  let open QCheck in
  let print (m, seed, index) =
    Printf.sprintf "%s seed=%d index=%d" (Arrival.model_name m) seed index
  in
  let gen =
    let open Gen in
    let rate = map (fun r -> float_of_int r /. 10.) (int_range 1 10_000) in
    let poisson = map (fun r -> Arrival.Poisson { rate_per_s = r }) rate in
    let bursty =
      int_range 1 256 >>= fun period ->
      int_range 0 period >>= fun burst_len ->
      map2
        (fun base_per_s burst_per_s ->
          Arrival.Bursty { base_per_s; burst_per_s; burst_len; period })
        rate rate
    in
    triple (oneof [ poisson; bursty ]) (int_bound 1_000_000) (int_bound 5_000)
  in
  make ~print gen

let qcheck_gap_pure =
  QCheck.Test.make ~count:300
    ~name:"fleet: arrival gaps pure in (model, seed, index), >= 1 ns"
    arb_model_seed_index
    (fun (model, seed, index) ->
      let g = Arrival.gap_ns model ~seed ~index in
      g >= 1 && g = Arrival.gap_ns model ~seed ~index)

let qcheck_arrivals_prefix_sums =
  QCheck.Test.make ~count:100
    ~name:"fleet: arrivals = strictly increasing prefix sums of gaps"
    arb_model_seed_index
    (fun (model, seed, _) ->
      let n = 200 in
      let times = Arrival.arrivals model ~seed ~n in
      let acc = ref 0 and ok = ref (Array.length times = n) in
      for i = 0 to n - 1 do
        acc := !acc + Arrival.gap_ns model ~seed ~index:i;
        if times.(i) <> !acc then ok := false;
        if i > 0 && times.(i) <= times.(i - 1) then ok := false
      done;
      !ok)

let arrival_rejects_malformed () =
  expect_invalid "zero rate" (fun () ->
      Arrival.validate (Arrival.Poisson { rate_per_s = 0. }));
  expect_invalid "nan rate" (fun () ->
      Arrival.validate (Arrival.Poisson { rate_per_s = Float.nan }));
  expect_invalid "burst_len > period" (fun () ->
      Arrival.validate
        (Arrival.Bursty
           { base_per_s = 1.; burst_per_s = 2.; burst_len = 5; period = 4 }));
  expect_invalid "negative index" (fun () ->
      Arrival.gap_ns (Arrival.Poisson { rate_per_s = 1. }) ~seed:0 ~index:(-1))

(* --- warm pool --- *)

let qcheck_pool_bounded =
  let open QCheck in
  QCheck.Test.make ~count:300
    ~name:"fleet: pool occupancy never exceeds capacity; counters add up"
    (pair (int_bound 4) (list_of_size (Gen.int_range 0 200) bool))
    (fun (capacity, ops) ->
      let pool = Pool.create ~capacity in
      let now = ref 0 and next_id = ref 0 and acquires = ref 0 in
      let ok = ref true in
      List.iter
        (fun acquire_op ->
          incr now;
          if acquire_op then begin
            incr acquires;
            ignore (Pool.acquire pool ~now_ns:!now)
          end
          else begin
            let id = !next_id in
            incr next_id;
            Pool.release pool { Pool.id; layout_seed = id } ~now_ns:!now
          end;
          if Pool.size pool > capacity then ok := false)
        ops;
      !ok
      && Pool.hits pool + Pool.misses pool = !acquires
      && Pool.size pool <= capacity)

let pool_lru_semantics () =
  let pool = Pool.create ~capacity:2 in
  let inst id = { Pool.id; layout_seed = id } in
  Pool.release pool (inst 0) ~now_ns:1;
  Pool.release pool (inst 1) ~now_ns:2;
  (* full: releasing a third evicts the least recently used (0) *)
  Pool.release pool (inst 2) ~now_ns:3;
  check int "one eviction" 1 (Pool.evictions pool);
  (* acquire returns the hottest instance first *)
  (match Pool.acquire pool ~now_ns:4 with
  | Some i -> check int "MRU first" 2 i.Pool.id
  | None -> Alcotest.fail "pool unexpectedly empty");
  (match Pool.acquire pool ~now_ns:5 with
  | Some i -> check int "then the survivor" 1 i.Pool.id
  | None -> Alcotest.fail "pool unexpectedly empty");
  check Alcotest.bool "then a miss" true (Pool.acquire pool ~now_ns:6 = None);
  expect_invalid "time ran backwards" (fun () ->
      Pool.release pool (inst 9) ~now_ns:2)

(* recycled =~ fresh is what lets the warm tier recycle guest memory
   through the arena at all; the differential oracle certifies it *)
let arena_oracle_green () =
  let open Imk_check in
  let p =
    {
      Point.preset = Imk_kernel.Config.Aws;
      variant = Imk_kernel.Config.Kaslr;
      codec = "lz4";
      functions = 60;
      seed = 11L;
    }
  in
  match (Oracle.arena_fresh.Oracle.run (Env.build p) p).Oracle.outcome with
  | Oracle.Pass -> ()
  | Oracle.Divergence d -> Alcotest.failf "arena/fresh oracle diverged: %s" d

(* --- the simulator --- *)

let sim_cfg ?(arrival = Arrival.Poisson { rate_per_s = 40. }) ?(seed = 11)
    ?(requests = 800) ?(servers = 2) ?(pool_capacity = 2)
    ?(queue_capacity = 8) ?(cold = [| 40_000_000; 45_000_000 |])
    ?(warm = [| 5_000_000; 6_000_000 |]) ?(fault = [||]) ?weather () =
  {
    Sim.arrival;
    seed;
    requests;
    servers;
    pool_capacity;
    queue_capacity;
    cold_ns = cold;
    warm_ns = warm;
    fault_ns = fault;
    weather;
    seams = [ Inject.Transient_init 1; Inject.Truncate_relocs ];
  }

let sim_deterministic () =
  let cfg =
    sim_cfg ~weather:(W.make W.Storm ~seed:5) ~fault:[| 60_000_000 |] ()
  in
  let a = Sim.run cfg and b = Sim.run cfg in
  check Alcotest.bool "equal reports" true (a = b)

let sim_conserves_requests () =
  List.iter
    (fun cfg ->
      let r = Sim.run cfg in
      check int "completed + dropped = requests" r.Sim.requests
        (r.Sim.completed + r.Sim.dropped);
      check int "classes partition completions" r.Sim.completed
        (r.Sim.cold_starts + r.Sim.warm_starts + r.Sim.fault_starts);
      check int "sojourn counts completions" r.Sim.completed
        r.Sim.sojourn.Imk_util.Stats.n;
      check Alcotest.bool "pool within bound" true
        (r.Sim.pool_hits = 0
        || r.Sim.hit_rate > 0.))
    [
      sim_cfg ();
      sim_cfg
        ~arrival:
          (Arrival.Bursty
             {
               base_per_s = 10.;
               burst_per_s = 400.;
               burst_len = 32;
               period = 128;
             })
        ();
      sim_cfg ~weather:(W.make W.Flaky ~seed:9) ~fault:[| 60_000_000 |] ();
    ]

let sim_drops_when_queue_full () =
  (* one slow server, no queue: overlapping arrivals must be dropped,
     not silently absorbed *)
  let r =
    Sim.run
      (sim_cfg
         ~arrival:(Arrival.Poisson { rate_per_s = 200. })
         ~servers:1 ~queue_capacity:0 ~cold:[| 100_000_000 |]
         ~warm:[| 90_000_000 |] ())
  in
  check Alcotest.bool "some requests dropped" true (r.Sim.dropped > 0);
  check int "still conserved" r.Sim.requests (r.Sim.completed + r.Sim.dropped)

let sim_weather_faults_served_apart () =
  let calm = Sim.run (sim_cfg ()) in
  check int "no weather, no fault starts" 0 calm.Sim.fault_starts;
  let storm =
    Sim.run (sim_cfg ~weather:(W.make W.Storm ~seed:5) ~fault:[| 60_000_000 |] ())
  in
  check Alcotest.bool "storm serves fault-laden starts" true
    (storm.Sim.fault_starts > 0);
  check int "fault summary counts them" storm.Sim.fault_starts
    storm.Sim.fault_service.Imk_util.Stats.n

let sim_rejects_malformed () =
  expect_invalid "servers < 1" (fun () -> Sim.run (sim_cfg ~servers:0 ()));
  expect_invalid "empty cold samples" (fun () -> Sim.run (sim_cfg ~cold:[||] ()));
  expect_invalid "weather without fault samples" (fun () ->
      Sim.run (sim_cfg ~weather:(W.make W.Storm ~seed:1) ~fault:[||] ()))

(* --- the simulator against a naive FIFO queue: with one cost array
   for cold, warm and fault starts a request's cost is pure in its
   index, so the pool and the weather cannot move the schedule, and
   Queue_ref's list-based admission must reproduce it exactly --- *)

let arb_fifo_cell =
  let open QCheck in
  let gen =
    let open Gen in
    let rate = map float_of_int (int_range 20 400) in
    let arrival =
      oneof
        [
          map (fun r -> Arrival.Poisson { rate_per_s = r }) rate;
          ( int_range 1 64 >>= fun period ->
            int_range 0 period >>= fun burst_len ->
            map2
              (fun base_per_s k ->
                Arrival.Bursty
                  {
                    base_per_s;
                    burst_per_s = base_per_s *. float_of_int k;
                    burst_len;
                    period;
                  })
              rate (int_range 1 8) );
        ]
    in
    let costs =
      array_size (int_range 1 4) (map (fun ms -> ms * 1_000_000) (int_range 1 50))
    in
    arrival >>= fun arrival ->
    costs >>= fun costs ->
    int_range 1 4 >>= fun servers ->
    int_range 0 4 >>= fun queue_capacity ->
    int_range 0 3 >>= fun pool_capacity ->
    int_range 1 300 >>= fun requests ->
    int_bound 1_000_000 >>= fun seed ->
    map
      (fun storm ->
        let weather = if storm then Some (W.make W.Storm ~seed) else None in
        sim_cfg ~arrival ~seed ~requests ~servers ~pool_capacity
          ~queue_capacity ~cold:costs ~warm:costs ~fault:costs ?weather ())
      bool
  in
  let print (c : Sim.config) =
    Printf.sprintf
      "%s seed=%d requests=%d servers=%d queue=%d pool=%d costs=[%s] weather=%b"
      (Arrival.model_name c.Sim.arrival)
      c.Sim.seed c.Sim.requests c.Sim.servers c.Sim.queue_capacity
      c.Sim.pool_capacity
      (String.concat ";" (Array.to_list (Array.map string_of_int c.Sim.cold_ns)))
      (c.Sim.weather <> None)
  in
  make ~print gen

let qcheck_sim_matches_fifo_ref =
  QCheck.Test.make ~count:200
    ~name:"fleet: Sim queueing = naive FIFO reference (completed, dropped, waits, sojourns)"
    arb_fifo_cell
    (fun cfg ->
      let r = Sim.run cfg in
      let q =
        Queue_ref.run ~arrival:cfg.Sim.arrival ~seed:cfg.Sim.seed
          ~requests:cfg.Sim.requests ~servers:cfg.Sim.servers
          ~queue_capacity:cfg.Sim.queue_capacity ~costs:cfg.Sim.cold_ns
      in
      let summary (s : Imk_util.Stats.summary) =
        Printf.sprintf "n=%d mean=%.17g p50=%.17g p99=%.17g" s.n s.mean s.p50 s.p99
      in
      r.Sim.completed = q.Queue_ref.completed
      && r.Sim.dropped = q.Queue_ref.dropped
      && r.Sim.queue_wait = q.Queue_ref.queue_wait
      && r.Sim.sojourn = q.Queue_ref.sojourn
      && r.Sim.queue_depth = q.Queue_ref.queue_depth
      || QCheck.Test.fail_reportf
           "sim: completed=%d dropped=%d wait %s sojourn %s depth %s\n\
            ref: completed=%d dropped=%d wait %s sojourn %s depth %s"
           r.Sim.completed r.Sim.dropped (summary r.Sim.queue_wait)
           (summary r.Sim.sojourn) (summary r.Sim.queue_depth)
           q.Queue_ref.completed q.Queue_ref.dropped
           (summary q.Queue_ref.queue_wait)
           (summary q.Queue_ref.sojourn)
           (summary q.Queue_ref.queue_depth))

(* --- the corrected throughput metric (satellite of this PR): rate
   divides by the actual elapsed span, not the full window --- *)

let instantiation_rate_uses_elapsed_span () =
  (* one core, 3 s boots, 10 s window: completions at 3/6/9 s. The old
     code reported 3 / 10 s = 0.30; the span is 9 s, so 1/3 per s. *)
  let r = Sim.instantiation_rate ~cores:1 ~window_ms:10_000. [| 3_000. |] in
  check (Alcotest.float 1e-9) "boots per second" (1. /. 3.) r;
  let r2 = Sim.instantiation_rate ~cores:2 ~window_ms:10_000. [| 3_000. |] in
  check (Alcotest.float 1e-9) "cores scale linearly" (2. /. 3.) r2;
  check (Alcotest.float 0.) "nothing fits the window" 0.
    (Sim.instantiation_rate ~cores:1 ~window_ms:1_000. [| 3_000. |]);
  expect_invalid "cores < 1" (fun () ->
      Sim.instantiation_rate ~cores:0 ~window_ms:1_000. [| 1. |]);
  expect_invalid "non-positive sample" (fun () ->
      Sim.instantiation_rate ~cores:1 ~window_ms:1_000. [| 0. |])

(* --- campaign rows must be bit-identical for any jobs fan-out --- *)

let fleet_jobs_invariant () =
  let module H = Imk_harness in
  let run jobs =
    let run = { H.Workspace.default_run with jobs; requests = Some 1500 } in
    let ws = H.Workspace.create ~scale:4 ~functions_override:50 ~run () in
    (List.assoc "fleet" H.Experiments.registry) ~runs:2 ws
  in
  let a = run 1 and b = run 4 in
  check
    Alcotest.(list (list string))
    "table rows identical"
    (Imk_util.Table.rows a.H.Experiments.table)
    (Imk_util.Table.rows b.H.Experiments.table);
  check Alcotest.(list string) "notes identical" a.H.Experiments.notes
    b.H.Experiments.notes;
  check Alcotest.bool "telemetry rows identical" true
    (a.H.Experiments.telemetry = b.H.Experiments.telemetry);
  check Alcotest.bool "verdicts pass" true (H.Experiments.failures a = [])

let () =
  Alcotest.run "fleet"
    [
      ( "arrival",
        [
          Testkit.to_alcotest qcheck_gap_pure;
          Testkit.to_alcotest qcheck_arrivals_prefix_sums;
          Alcotest.test_case "rejects malformed models" `Quick
            arrival_rejects_malformed;
        ] );
      ( "pool",
        [
          Testkit.to_alcotest qcheck_pool_bounded;
          Alcotest.test_case "LRU semantics" `Quick pool_lru_semantics;
          Alcotest.test_case "recycled ≡ fresh (arena oracle)" `Quick
            arena_oracle_green;
        ] );
      ( "sim",
        [
          Alcotest.test_case "deterministic" `Quick sim_deterministic;
          Alcotest.test_case "conserves requests" `Quick sim_conserves_requests;
          Alcotest.test_case "drops at a full queue" `Quick
            sim_drops_when_queue_full;
          Alcotest.test_case "weather faults accounted" `Quick
            sim_weather_faults_served_apart;
          Testkit.to_alcotest qcheck_sim_matches_fifo_ref;
          Alcotest.test_case "rejects malformed configs" `Quick
            sim_rejects_malformed;
          Alcotest.test_case "instantiation rate uses elapsed span" `Quick
            instantiation_rate_uses_elapsed_span;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "fleet rows jobs-invariant" `Slow
            fleet_jobs_invariant;
        ] );
    ]

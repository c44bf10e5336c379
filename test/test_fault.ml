(* Tests for Imk_fault (failure taxonomy + deterministic injectors) and
   Imk_harness.Boot_supervisor: every armed fault must end as a typed
   failure or a recovered verify-green boot — never a silent success —
   and supervision must be bit-identical for any ~jobs value. *)

open Imk_monitor
open Imk_harness
module Failure = Imk_fault.Failure
module Inject = Imk_fault.Inject

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string

(* --- taxonomy --- *)

let kind_of e =
  match Failure.classify e with
  | Some f -> Failure.kind_name f
  | None -> "unclassified"

let test_classify_map () =
  let expect tag e = check string tag tag (kind_of e) in
  expect "corrupt-image" (Vmm.Boot_error "x");
  expect "corrupt-image" (Imk_elf.Types.Malformed "x");
  expect "corrupt-image" (Imk_kernel.Bzimage.Malformed "x");
  expect "corrupt-image" (Imk_bootstrap.Loader.Loader_error "x");
  expect "corrupt-image" (Imk_guest.Boot_info.Invalid "x");
  expect "bad-reloc" (Imk_elf.Relocation.Bad_table "x");
  expect "bad-reloc" (Imk_kernel.Relocs_tool.Unsupported "x");
  expect "decode-error" (Imk_compress.Codec.Corrupt "x");
  expect "decode-error" (Snapshot.Corrupt "x");
  expect "decode-error" (Imk_kernel.Rootfs.Corrupt "x");
  expect "decode-error" (Imk_kernel.Initrd.Corrupt "x");
  expect "transient" (Vmm.Transient "x");
  expect "guest-panic" (Imk_guest.Runtime.Panic "x");
  expect "guest-panic" (Imk_memory.Guest_mem.Fault "x");
  expect "deadline-exceeded" (Imk_vclock.Deadline.Exceeded "x")

let test_recoverable_partition () =
  let yes = [ Failure.Transient "x"; Failure.Deadline_exceeded "x" ] in
  let no =
    [
      Failure.Corrupt_image "x"; Failure.Bad_reloc "x"; Failure.Decode_error "x";
      Failure.Guest_panic "x";
    ]
  in
  List.iter
    (fun f ->
      check Alcotest.bool (Failure.kind_name f) true (Failure.recoverable f))
    yes;
  List.iter
    (fun f ->
      check Alcotest.bool (Failure.kind_name f) false (Failure.recoverable f))
    no

let test_classify_rejects_programming_errors () =
  List.iter
    (fun e -> check string "unclassified" "unclassified" (kind_of e))
    [ Not_found; Invalid_argument "x"; Stdlib.Failure "x"; Exit ]

let test_describe () =
  check string "describe" "bad-reloc: truncated"
    (Failure.describe (Failure.Bad_reloc "truncated"));
  check string "event name" "rederived-relocs"
    (Failure.event_name (Failure.Rederived_relocs (Failure.Bad_reloc "m")))

(* --- injector determinism --- *)

let make_disk = Testkit.pristine_disk

let test_arm_is_deterministic () =
  let env = Testkit.make_env ~functions:50 () in
  List.iter
    (fun kind ->
      let corrupted_view seed =
        let disk = make_disk env in
        let _armed =
          Inject.arm kind ~seed ~disk ~kernel_path:(Testkit.vmlinux_path env)
            ~relocs_path:(Testkit.relocs_path env) ()
        in
        ( Imk_storage.Disk.find disk (Testkit.vmlinux_path env),
          Imk_storage.Disk.find disk (Testkit.relocs_path env) )
      in
      let k1, r1 = corrupted_view 42 and k2, r2 = corrupted_view 42 in
      check Alcotest.bool (Inject.name kind ^ " image deterministic") true
        (Bytes.equal k1 k2);
      check Alcotest.bool (Inject.name kind ^ " relocs deterministic") true
        (Bytes.equal r1 r2))
    [
      Inject.Truncate_image; Inject.Flip_image_magic; Inject.Flip_entry_magic;
      Inject.Truncate_relocs; Inject.Flip_relocs_magic;
      Inject.Read_fault_entry_magic;
    ]

let qcheck_flip_one_bit_flips_exactly_one =
  QCheck.Test.make ~count:200 ~name:"inject: flip_one_bit changes exactly one bit"
    QCheck.(pair small_int (string_of_size (QCheck.Gen.int_range 1 512)))
    (fun (seed, s) ->
      let b = Bytes.of_string s in
      let flipped = Inject.flip_one_bit ~seed (Bytes.copy b) in
      let diff_bits = ref 0 in
      Bytes.iteri
        (fun i c ->
          let x = Char.code c lxor Char.code (Bytes.get flipped i) in
          for bit = 0 to 7 do
            if x land (1 lsl bit) <> 0 then incr diff_bits
          done)
        b;
      !diff_bits = 1
      && Bytes.equal flipped (Inject.flip_one_bit ~seed (Bytes.copy b)))

(* --- supervision --- *)

let supervise_env ?preset () =
  let env = Testkit.make_env ?preset ~functions:50 () in
  let vm =
    Vm_config.make ~rando:Vm_config.Rando_kaslr
      ~relocs_path:(Some (Testkit.relocs_path env))
      ~mem_bytes:(64 * 1024 * 1024)
      ~kernel_path:(Testkit.vmlinux_path env) ~kernel_config:env.Testkit.cfg
      ~seed:0L ()
  in
  (env, vm)

let armed_ctx ?(files = []) ?kernel_path env kind ~seed =
  let disk = make_disk env in
  List.iter (fun (n, b) -> Imk_storage.Disk.add disk ~name:n b) files;
  let kernel_path =
    Option.value ~default:(Testkit.vmlinux_path env) kernel_path
  in
  let armed =
    Inject.arm kind ~seed ~disk ~kernel_path
      ~relocs_path:(Testkit.relocs_path env) ()
  in
  {
    Boot_supervisor.cache = Imk_storage.Page_cache.create disk;
    inject = armed.Inject.inject;
    plans = None;
  }

let plain_report ?(seed = 5L) () =
  let env, vm = supervise_env () in
  let ctx = Boot_supervisor.plain_ctx (Imk_storage.Page_cache.create (make_disk env)) in
  Boot_supervisor.supervise ~seed ~ctx vm

let test_supervise_clean_boot () =
  let r = plain_report () in
  (match r.Boot_supervisor.outcome with
  | Ok stats -> check int "verified" 50 stats.Imk_guest.Runtime.functions_visited
  | Error f -> Alcotest.failf "clean boot failed: %s" (Failure.describe f));
  check int "one attempt" 1 r.Boot_supervisor.attempts;
  check int "no events" 0 (List.length r.Boot_supervisor.events)

let test_transient_retried_with_paid_backoff () =
  let env, vm = supervise_env () in
  let ctx = armed_ctx env (Inject.Transient_init 1) ~seed:3 in
  let r = Boot_supervisor.supervise ~seed:5L ~ctx vm in
  (match r.Boot_supervisor.outcome with
  | Ok stats -> check int "verified after retry" 50 stats.Imk_guest.Runtime.functions_visited
  | Error f -> Alcotest.failf "retry did not recover: %s" (Failure.describe f));
  check int "two attempts" 2 r.Boot_supervisor.attempts;
  (match r.Boot_supervisor.events with
  | [ Failure.Retried { attempt = 1; failure = Failure.Transient _; backoff_ns } ] ->
      check int "first backoff" Boot_supervisor.backoff_base_ns backoff_ns
  | _ -> Alcotest.fail "expected exactly one Retried event");
  (* the backoff is on the virtual clock: dearer than the same boot clean *)
  let clean = plain_report ~seed:5L () in
  check Alcotest.bool "retry charged" true
    (r.Boot_supervisor.total_ns
    > clean.Boot_supervisor.total_ns + Boot_supervisor.backoff_base_ns)

let test_transient_exhausts_retries () =
  let env, vm = supervise_env () in
  let ctx = armed_ctx env (Inject.Transient_init 99) ~seed:3 in
  let r = Boot_supervisor.supervise ~max_retries:2 ~seed:5L ~ctx vm in
  (match r.Boot_supervisor.outcome with
  | Error (Failure.Transient _) -> ()
  | Ok _ -> Alcotest.fail "persistent transient must not end green"
  | Error f -> Alcotest.failf "wrong kind: %s" (Failure.describe f));
  check int "initial + 2 retries" 3 r.Boot_supervisor.attempts;
  check int "two Retried events" 2 (List.length r.Boot_supervisor.events)

let test_corrupt_image_is_typed_failure () =
  let env, vm = supervise_env () in
  List.iter
    (fun (kind, expected) ->
      let ctx = armed_ctx env kind ~seed:7 in
      let r = Boot_supervisor.supervise ~seed:5L ~ctx vm in
      match r.Boot_supervisor.outcome with
      | Error f ->
          check string (Inject.name kind) expected (Failure.kind_name f);
          check int "no retries for persistent corruption" 1
            r.Boot_supervisor.attempts
      | Ok _ -> Alcotest.failf "%s booted green" (Inject.name kind))
    [
      (Inject.Truncate_image, "corrupt-image");
      (Inject.Flip_image_magic, "corrupt-image");
      (Inject.Flip_entry_magic, "guest-panic");
      (Inject.Read_fault_entry_magic, "guest-panic");
    ]

let test_bad_relocs_rederived () =
  let env, vm = supervise_env () in
  List.iter
    (fun kind ->
      let ctx = armed_ctx env kind ~seed:11 in
      let r = Boot_supervisor.supervise ~seed:5L ~ctx vm in
      (match r.Boot_supervisor.outcome with
      | Ok stats ->
          check int
            (Inject.name kind ^ " verifies after re-derivation")
            50 stats.Imk_guest.Runtime.functions_visited
      | Error f -> Alcotest.failf "rederive failed: %s" (Failure.describe f));
      match r.Boot_supervisor.events with
      | [ Failure.Rederived_relocs (Failure.Bad_reloc _) ] -> ()
      | _ -> Alcotest.fail "expected exactly one Rederived_relocs event")
    [ Inject.Truncate_relocs; Inject.Flip_relocs_magic ]

let test_failed_attempts_do_not_poison_arena () =
  let env, vm = supervise_env () in
  let arena = Imk_memory.Arena.create () in
  let ctx = armed_ctx env Inject.Flip_entry_magic ~seed:7 in
  let r = Boot_supervisor.supervise ~arena ~seed:5L ~ctx vm in
  (match r.Boot_supervisor.outcome with
  | Error (Failure.Guest_panic _) -> ()
  | _ -> Alcotest.fail "expected a guest panic");
  (* the dead boot's memory is back, scrubbed: the next (clean) boot
     recycles it and still verifies *)
  check int "buffer back in pool" vm.Vm_config.mem_bytes
    (Imk_memory.Arena.pooled_bytes arena);
  let clean_ctx =
    Boot_supervisor.plain_ctx (Imk_storage.Page_cache.create (make_disk env))
  in
  let r2 = Boot_supervisor.supervise ~arena ~seed:6L ~ctx:clean_ctx vm in
  (match r2.Boot_supervisor.outcome with
  | Ok stats -> check int "recycled boot verifies" 50 stats.Imk_guest.Runtime.functions_visited
  | Error f -> Alcotest.failf "recycled boot failed: %s" (Failure.describe f));
  check int "pool recycled, not regrown" vm.Vm_config.mem_bytes
    (Imk_memory.Arena.pooled_bytes arena)

let test_snapshot_falls_back_to_cold_boot () =
  let env, vm = supervise_env () in
  let _, r = Testkit.boot env ~seed:404L in
  let blob = Snapshot.serialize (Snapshot.capture r) in
  let disk = make_disk env in
  Imk_storage.Disk.add disk ~name:"base.snapshot"
    (Inject.flip_one_bit ~seed:17 (Bytes.copy blob));
  let ctx = Boot_supervisor.plain_ctx (Imk_storage.Page_cache.create disk) in
  let rep =
    Boot_supervisor.supervise_snapshot ~seed:5L ~ctx
      ~snapshot_path:"base.snapshot" ~working_set_pages:64 vm
  in
  (match rep.Boot_supervisor.outcome with
  | Ok stats -> check int "fallback verifies" 50 stats.Imk_guest.Runtime.functions_visited
  | Error f -> Alcotest.failf "fallback failed: %s" (Failure.describe f));
  check int "restore + fallback boot" 2 rep.Boot_supervisor.attempts;
  (match rep.Boot_supervisor.events with
  | Failure.Fell_back_to_cold_boot (Failure.Decode_error _) :: _ -> ()
  | _ -> Alcotest.fail "expected a cold-boot fallback event");
  (* the pristine snapshot restores without any fallback *)
  Imk_storage.Disk.add disk ~name:"base.snapshot" blob;
  let ctx = Boot_supervisor.plain_ctx (Imk_storage.Page_cache.create disk) in
  let ok =
    Boot_supervisor.supervise_snapshot ~seed:5L ~ctx
      ~snapshot_path:"base.snapshot" ~working_set_pages:64 vm
  in
  check int "pristine restore, one attempt" 1 ok.Boot_supervisor.attempts;
  check int "pristine restore, no events" 0 (List.length ok.Boot_supervisor.events)

(* --- recovery accounting: the report's labelled intervals must tile
   total_ns around the successful attempt (enforced at construction;
   these tests pin the shape on each outcome class) --- *)

let sum_recovery (r : Boot_supervisor.report) =
  List.fold_left (fun acc (_, d) -> acc + d) 0 r.Boot_supervisor.recovery

let test_recovery_accounting () =
  (* clean boot: no recovery at all *)
  let clean = plain_report () in
  check int "clean: no recovery spans" 0 (List.length clean.Boot_supervisor.recovery);
  (* typed failure: the whole trace is recovery *)
  let env, vm = supervise_env () in
  let ctx = armed_ctx env Inject.Flip_image_magic ~seed:7 in
  let failed = Boot_supervisor.supervise ~seed:5L ~ctx vm in
  (match failed.Boot_supervisor.outcome with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt image booted green");
  check int "failure: recovery covers the trace"
    failed.Boot_supervisor.total_ns (sum_recovery failed);
  (* recovered transient: recovery is the failed attempt + backoff,
     strictly between zero and the trace total *)
  let ctx = armed_ctx env (Inject.Transient_init 1) ~seed:3 in
  let rec_r = Boot_supervisor.supervise ~seed:5L ~ctx vm in
  (match rec_r.Boot_supervisor.outcome with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "transient not recovered: %s" (Failure.describe f));
  let s = sum_recovery rec_r in
  check Alcotest.bool "recovered: 0 < recovery < total" true
    (s > 0 && s < rec_r.Boot_supervisor.total_ns);
  check Alcotest.bool "recovered: backoff is in the recovery" true
    (s >= Boot_supervisor.backoff_base_ns);
  match
    List.filter (fun (l, _) -> l = "retry-backoff") rec_r.Boot_supervisor.recovery
  with
  | [ (_, d) ] -> check Alcotest.bool "backoff interval charged" true (d > 0)
  | _ -> Alcotest.fail "expected exactly one retry-backoff interval"

(* --- weather: seed-deterministic correlated fault processes --- *)

module Weather = Imk_fault.Weather

let direct_seams =
  [
    Inject.Truncate_image; Inject.Flip_image_magic; Inject.Flip_entry_magic;
    Inject.Truncate_relocs; Inject.Flip_relocs_magic;
    Inject.Read_fault_entry_magic;
  ]

let test_weather_profiles_roundtrip () =
  List.iter
    (fun p ->
      match Weather.profile_of_name (Weather.profile_name p) with
      | Some q -> check Alcotest.bool (Weather.profile_name p) true (p = q)
      | None -> Alcotest.failf "%s did not round-trip" (Weather.profile_name p))
    Weather.all_profiles;
  check Alcotest.bool "unknown name" true (Weather.profile_of_name "hail" = None)

let test_weather_calm_is_faultless () =
  let w = Weather.make Weather.Calm ~seed:3 in
  for run = 1 to 64 do
    let fc = Weather.forecast w ~run ~seams:direct_seams in
    check Alcotest.bool "calm draws no fault" true (fc.Weather.fault = None);
    check Alcotest.bool "calm is never cold" false fc.Weather.cold;
    check Alcotest.bool "calm has no bursts" false (Weather.in_burst w ~run)
  done

let test_weather_forecast_deterministic () =
  List.iter
    (fun p ->
      let w1 = Weather.make p ~seed:9 and w2 = Weather.make p ~seed:9 in
      for run = 1 to 64 do
        check Alcotest.bool "same seed, same forecast" true
          (Weather.forecast w1 ~run ~seams:direct_seams
          = Weather.forecast w2 ~run ~seams:direct_seams);
        check int "same seed, same fault seed"
          (Weather.fault_seed w1 ~run)
          (Weather.fault_seed w2 ~run)
      done)
    Weather.all_profiles;
  (* fault seeds are distinct per run: no two runs corrupt identically *)
  let w = Weather.make Weather.Storm ~seed:9 in
  let seeds = List.init 64 (fun i -> Weather.fault_seed w ~run:(i + 1)) in
  check int "distinct fault seeds" 64
    (List.length (List.sort_uniq compare seeds))

let test_weather_storm_bursts_are_windowed () =
  let w = Weather.make Weather.Storm ~seed:1 in
  let stormy = ref 0 and quiet = ref 0 in
  for window = 0 to 31 do
    let first = (window * Weather.window_len) + 1 in
    let b = Weather.in_burst w ~run:first in
    if b then incr stormy else incr quiet;
    (* the whole window agrees with its first run: bursts are
       correlated, not per-boot coin flips *)
    for run = first to first + Weather.window_len - 1 do
      check Alcotest.bool "burst constant within window" b
        (Weather.in_burst w ~run)
    done
  done;
  check Alcotest.bool "both stormy and quiet windows occur" true
    (!stormy > 0 && !quiet > 0)

let test_weather_flaky_rates () =
  let w = Weather.make Weather.Flaky ~seed:2 in
  let faults = ref 0 and cold = ref 0 and transients = ref 0 in
  let runs = 400 in
  for run = 1 to runs do
    let fc = Weather.forecast w ~run ~seams:direct_seams in
    (match fc.Weather.fault with
    | Some (Inject.Transient_init _) ->
        incr faults;
        incr transients
    | Some _ -> incr faults
    | None -> ());
    if fc.Weather.cold then incr cold
  done;
  (* flaky is low-rate weather: faults happen, most boots are clean *)
  check Alcotest.bool "some faults" true (!faults > 0);
  check Alcotest.bool "mostly clean" true (!faults < runs / 2);
  check Alcotest.bool "transients and corruptions both drawn" true
    (!transients > 0 && !faults > !transients);
  check Alcotest.bool "some cold starts" true (!cold > 0 && !cold < runs / 2)

(* --- fleet supervision: circuit breaker, deadlines, retry budget --- *)

let clean_ctx env =
  Boot_supervisor.plain_ctx (Imk_storage.Page_cache.create (make_disk env))

let test_breaker_opens_short_circuits_and_probes () =
  let env, vm = supervise_env () in
  let policy =
    {
      Boot_supervisor.default_policy with
      Boot_supervisor.breaker_threshold = 2;
      breaker_cooldown = 2;
    }
  in
  let fleet = Boot_supervisor.fleet ~policy () in
  let corrupt () = armed_ctx env Inject.Flip_image_magic ~seed:7 in
  (* two consecutive persistent failures open the breaker *)
  let r1 = Boot_supervisor.supervise ~fleet ~seed:5L ~ctx:(corrupt ()) vm in
  (match r1.Boot_supervisor.outcome with
  | Error (Failure.Corrupt_image _) -> ()
  | _ -> Alcotest.fail "expected a corrupt-image failure");
  check string "still closed after one" "closed"
    (Boot_supervisor.breaker_state_name fleet);
  let r2 = Boot_supervisor.supervise ~fleet ~seed:6L ~ctx:(corrupt ()) vm in
  (match
     List.filter
       (function Failure.Breaker_opened _ -> true | _ -> false)
       r2.Boot_supervisor.events
   with
  | [ Failure.Breaker_opened { consecutive = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected Breaker_opened at the threshold");
  check string "open after two" "open" (Boot_supervisor.breaker_state_name fleet);
  check int "one trip" 1 (Boot_supervisor.breaker_trips fleet);
  (* while open, boots are short-circuited for a small charged cost —
     even with a perfectly healthy context *)
  let r3 =
    Boot_supervisor.supervise ~jitter:false ~fleet ~seed:7L ~ctx:(clean_ctx env)
      vm
  in
  check int "short-circuit makes no attempt" 0 r3.Boot_supervisor.attempts;
  (match r3.Boot_supervisor.events with
  | [ Failure.Breaker_short_circuit _ ] -> ()
  | _ -> Alcotest.fail "expected exactly one Breaker_short_circuit event");
  check int "short-circuit cost charged" Boot_supervisor.short_circuit_ns
    r3.Boot_supervisor.total_ns;
  check int "short-circuit fully accounted" r3.Boot_supervisor.total_ns
    (sum_recovery r3);
  let _r4 =
    Boot_supervisor.supervise ~fleet ~seed:8L ~ctx:(clean_ctx env) vm
  in
  check string "cooldown spent: half-open" "half-open"
    (Boot_supervisor.breaker_state_name fleet);
  (* the half-open probe boots for real; success closes the breaker *)
  let r5 = Boot_supervisor.supervise ~fleet ~seed:9L ~ctx:(clean_ctx env) vm in
  (match r5.Boot_supervisor.outcome with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "probe failed: %s" (Failure.describe f));
  (match r5.Boot_supervisor.events with
  | [ Failure.Breaker_probe { succeeded = true } ] -> ()
  | _ -> Alcotest.fail "expected a successful Breaker_probe event");
  check string "probe success closes" "closed"
    (Boot_supervisor.breaker_state_name fleet);
  let r6 = Boot_supervisor.supervise ~fleet ~seed:10L ~ctx:(clean_ctx env) vm in
  check int "closed breaker is invisible" 0
    (List.length r6.Boot_supervisor.events)

let test_breaker_probe_failure_reopens () =
  let env, vm = supervise_env () in
  let policy =
    {
      Boot_supervisor.default_policy with
      Boot_supervisor.breaker_threshold = 1;
      breaker_cooldown = 1;
    }
  in
  let fleet = Boot_supervisor.fleet ~policy () in
  let corrupt () = armed_ctx env Inject.Flip_image_magic ~seed:7 in
  let _ = Boot_supervisor.supervise ~fleet ~seed:5L ~ctx:(corrupt ()) vm in
  check string "open after threshold 1" "open"
    (Boot_supervisor.breaker_state_name fleet);
  let _ = Boot_supervisor.supervise ~fleet ~seed:6L ~ctx:(clean_ctx env) vm in
  let r_probe =
    Boot_supervisor.supervise ~fleet ~seed:7L ~ctx:(corrupt ()) vm
  in
  (match
     List.filter
       (function Failure.Breaker_probe _ -> true | _ -> false)
       r_probe.Boot_supervisor.events
   with
  | [ Failure.Breaker_probe { succeeded = false } ] -> ()
  | _ -> Alcotest.fail "expected a failed Breaker_probe event");
  check string "failed probe re-opens" "open"
    (Boot_supervisor.breaker_state_name fleet);
  check int "re-opening is not a new trip" 1
    (Boot_supervisor.breaker_trips fleet);
  (* and a later healthy probe still closes it *)
  let _ = Boot_supervisor.supervise ~fleet ~seed:8L ~ctx:(clean_ctx env) vm in
  let _ = Boot_supervisor.supervise ~fleet ~seed:9L ~ctx:(clean_ctx env) vm in
  check string "healthy probe closes" "closed"
    (Boot_supervisor.breaker_state_name fleet)

let test_breaker_ignores_transients () =
  let env, vm = supervise_env () in
  let policy =
    { Boot_supervisor.default_policy with Boot_supervisor.breaker_threshold = 1 }
  in
  let fleet = Boot_supervisor.fleet ~policy () in
  let ctx = armed_ctx env (Inject.Transient_init 1) ~seed:3 in
  let r = Boot_supervisor.supervise ~fleet ~seed:5L ~ctx vm in
  (match r.Boot_supervisor.outcome with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "transient not recovered: %s" (Failure.describe f));
  check string "transients never open the breaker" "closed"
    (Boot_supervisor.breaker_state_name fleet);
  check int "no trips" 0 (Boot_supervisor.breaker_trips fleet)

let test_retry_budget_fails_fast_when_dry () =
  let env, vm = supervise_env () in
  let policy =
    {
      Boot_supervisor.default_policy with
      Boot_supervisor.max_retries = 5;
      retry_budget = 1;
    }
  in
  let fleet = Boot_supervisor.fleet ~policy () in
  let ctx = armed_ctx env (Inject.Transient_init 3) ~seed:3 in
  let r = Boot_supervisor.supervise ~fleet ~seed:5L ~ctx vm in
  (match r.Boot_supervisor.outcome with
  | Error (Failure.Transient _) -> ()
  | _ -> Alcotest.fail "dry budget must fail fast on the next transient");
  (match r.Boot_supervisor.events with
  | [ Failure.Retried _; Failure.Retry_budget_exhausted _ ] -> ()
  | _ ->
      Alcotest.fail "expected one Retried then Retry_budget_exhausted");
  check int "campaign budget drained" 0 (Boot_supervisor.retries_left fleet);
  check int "one retry, then fail-fast" 2 r.Boot_supervisor.attempts

let test_deadline_aborts_cold_attempt_recovers_warm () =
  let env, vm = supervise_env () in
  let disk = make_disk env in
  (* reference totals on one shared cache: first boot cold, second warm *)
  let cache = Imk_storage.Page_cache.create disk in
  let ctx = Boot_supervisor.plain_ctx cache in
  let t_cold =
    (Boot_supervisor.supervise ~jitter:false ~seed:5L ~ctx vm)
      .Boot_supervisor.total_ns
  in
  let t_warm =
    (Boot_supervisor.supervise ~jitter:false ~seed:5L ~ctx vm)
      .Boot_supervisor.total_ns
  in
  check Alcotest.bool "cold boot is dearer" true (t_warm < t_cold);
  (* budget below the cold total: the first attempt on a cold cache
     overruns at a phase boundary and is aborted; its reads populated
     the cache, so the fresh-budget retry fits *)
  let policy =
    {
      Boot_supervisor.default_policy with
      Boot_supervisor.attempt_budget_ns = Some (t_cold - 1);
    }
  in
  let fleet = Boot_supervisor.fleet ~policy () in
  let ctx =
    Boot_supervisor.plain_ctx (Imk_storage.Page_cache.create (make_disk env))
  in
  let r = Boot_supervisor.supervise ~jitter:false ~fleet ~seed:5L ~ctx vm in
  (match r.Boot_supervisor.outcome with
  | Ok _ -> ()
  | Error f ->
      Alcotest.failf "warm retry did not recover: %s" (Failure.describe f));
  check int "aborted attempt + warm retry" 2 r.Boot_supervisor.attempts;
  (match r.Boot_supervisor.events with
  | [ Failure.Deadline_aborted { failure = Failure.Deadline_exceeded _; fresh_budget_ns } ] ->
      check int "fresh budget is the policy budget" (t_cold - 1) fresh_budget_ns
  | _ -> Alcotest.fail "expected exactly one Deadline_aborted event");
  (match
     List.filter (fun (l, _) -> l = "failed-attempt") r.Boot_supervisor.recovery
   with
  | [ (_, d) ] ->
      check Alcotest.bool "aborted attempt charged up to its boundary" true
        (d > 0)
  | _ -> Alcotest.fail "expected one failed-attempt interval");
  check Alcotest.bool "recovery strictly inside the total" true
    (let s = sum_recovery r in
     s > 0 && s < r.Boot_supervisor.total_ns)

let test_deadline_double_overrun_is_typed () =
  let env, vm = supervise_env () in
  let policy =
    {
      Boot_supervisor.default_policy with
      Boot_supervisor.attempt_budget_ns = Some 1;
    }
  in
  let fleet = Boot_supervisor.fleet ~policy () in
  let ctx = clean_ctx env in
  let r = Boot_supervisor.supervise ~jitter:false ~fleet ~seed:5L ~ctx vm in
  (match r.Boot_supervisor.outcome with
  | Error (Failure.Deadline_exceeded _) -> ()
  | _ -> Alcotest.fail "hopeless budget must end as Deadline_exceeded");
  check int "one abort, one fallback" 2 r.Boot_supervisor.attempts;
  (match r.Boot_supervisor.events with
  | [ Failure.Deadline_aborted _ ] -> ()
  | _ -> Alcotest.fail "expected exactly one Deadline_aborted event");
  check int "failure fully accounted" r.Boot_supervisor.total_ns
    (sum_recovery r)

(* --- satellite 3: weathered supervision is total (typed or recovered,
   never a raw exception) and deterministically replayable --- *)

let weathered_campaign env vm ~profile ~seed ~runs =
  let w = Weather.make profile ~seed in
  let policy =
    {
      Boot_supervisor.default_policy with
      Boot_supervisor.breaker_threshold = 2;
      breaker_cooldown = 1;
      retry_budget = 4;
    }
  in
  let fleet = Boot_supervisor.fleet ~policy () in
  List.init runs (fun i ->
      let run = i + 1 in
      let fc = Weather.forecast w ~run ~seams:direct_seams in
      let ctx =
        match fc.Weather.fault with
        | None -> clean_ctx env
        | Some kind ->
            armed_ctx env kind ~seed:(Weather.fault_seed w ~run)
      in
      if not fc.Weather.cold then begin
        Imk_storage.Page_cache.warm ctx.Boot_supervisor.cache
          (Testkit.vmlinux_path env);
        Imk_storage.Page_cache.warm ctx.Boot_supervisor.cache
          (Testkit.relocs_path env)
      end;
      Boot_supervisor.supervise ~jitter:false ~fleet
        ~seed:(Boot_runner.run_seed run) ~ctx vm)

let test_weathered_replay_is_deterministic () =
  let env, vm = supervise_env () in
  (* forecasts are pure, so scan for a storm seed that actually draws a
     fault within the campaign — the replay must exercise recovery, not
     just eight clean boots *)
  let seed =
    let draws_fault s =
      let w = Weather.make Weather.Storm ~seed:s in
      List.exists
        (fun run ->
          (Weather.forecast w ~run ~seams:direct_seams).Weather.fault <> None)
        (List.init 8 (fun i -> i + 1))
    in
    let rec find s = if draws_fault s then s else find (s + 1) in
    find 1
  in
  let a = weathered_campaign env vm ~profile:Weather.Storm ~seed ~runs:8 in
  let b = weathered_campaign env vm ~profile:Weather.Storm ~seed ~runs:8 in
  List.iteri
    (fun i (x : Boot_supervisor.report) ->
      check Alcotest.bool (Printf.sprintf "run %d replays" (i + 1)) true
        (x = List.nth b i))
    a;
  (* the chosen seed actually exercises the machinery: the storm must
     have touched at least one run *)
  check Alcotest.bool "storm left a mark" true
    (List.exists
       (fun (r : Boot_supervisor.report) ->
         r.Boot_supervisor.events <> []
         || Result.is_error r.Boot_supervisor.outcome)
       a)

let qcheck_weathered_supervision_total =
  let shared = lazy (supervise_env ()) in
  let kinds = Array.of_list direct_seams in
  QCheck.Test.make ~count:30
    ~name:"fault: every seam x profile ends typed or recovered under a fleet"
    QCheck.(
      triple
        (int_bound (Array.length kinds - 1))
        (int_bound 2) (int_bound 9_999))
    (fun (k, p, seed) ->
      let env, vm = Lazy.force shared in
      let profile = List.nth Weather.all_profiles p in
      let w = Weather.make profile ~seed in
      let policy =
        {
          Boot_supervisor.default_policy with
          Boot_supervisor.breaker_threshold = 2;
          breaker_cooldown = 1;
        }
      in
      let fleet = Boot_supervisor.fleet ~policy () in
      let ctx = armed_ctx env kinds.(k) ~seed:(Weather.fault_seed w ~run:1) in
      if not (Weather.forecast w ~run:1 ~seams:direct_seams).Weather.cold then begin
        Imk_storage.Page_cache.warm ctx.Boot_supervisor.cache
          (Testkit.vmlinux_path env);
        Imk_storage.Page_cache.warm ctx.Boot_supervisor.cache
          (Testkit.relocs_path env)
      end;
      let r =
        Boot_supervisor.supervise ~fleet ~seed:(Int64.of_int (seed + 1)) ~ctx vm
      in
      match r.Boot_supervisor.outcome with
      | Error f -> Failure.kind_name f <> "unclassified"
      | Ok _ -> r.Boot_supervisor.events <> [])

(* --- jobs-invariance with injected faults (satellite 4) --- *)

let test_faults_campaign_jobs_invariant () =
  (* the whole fault campaign — every seam, the snapshot corruptions and
     their recoveries — renders the same rows for any fan-out *)
  let faults jobs =
    let run = { Workspace.default_run with jobs } in
    (List.assoc "faults" Experiments.registry) ~runs:3
      (Workspace.create ~scale:4 ~functions_override:50 ~run ())
  in
  let seq = faults 1 and par = faults 3 in
  check
    Alcotest.(list (list string))
    "table rows identical"
    (Imk_util.Table.rows seq.Experiments.table)
    (Imk_util.Table.rows par.Experiments.table);
  check Alcotest.bool "telemetry identical" true
    (seq.Experiments.telemetry = par.Experiments.telemetry);
  check Alcotest.bool "zero silent successes" true (Experiments.failures seq = [])

(* --- soundness property: no armed fault ever yields a silent green
   boot, and nothing escapes the taxonomy --- *)

let test_bz_kinds_refuse_vmlinux () =
  (* arming a bz fault on a vmlinux is harness miswiring, not a boot
     failure: the injector must refuse rather than corrupt blindly *)
  let env, _ = supervise_env () in
  List.iter
    (fun kind ->
      match armed_ctx env kind ~seed:1 with
      | (_ : Boot_supervisor.ctx) ->
          Alcotest.failf "%s armed on a vmlinux" (Inject.name kind)
      | exception Invalid_argument _ -> ())
    [ Inject.Truncate_bzimage; Inject.Flip_bz_payload_crc ]

let qcheck_no_silent_success =
  (* the preset axis comes from the shared kernel-matrix generator; envs
     are built lazily once per preset the sweep actually draws *)
  let envs = Hashtbl.create 3 in
  let env_for preset =
    match Hashtbl.find_opt envs preset with
    | Some e -> e
    | None ->
        let env, vm = supervise_env ~preset () in
        let bz_path =
          Testkit.add_bzimage env ~codec:"lz4"
            ~variant:Imk_kernel.Bzimage.Standard
        in
        let bz_bytes = Imk_storage.Disk.find env.Testkit.disk bz_path in
        let bz_vm =
          Vm_config.make ~flavor:Vm_config.In_monitor_fgkaslr
            ~rando:Vm_config.Rando_kaslr ~relocs_path:None
            ~mem_bytes:(64 * 1024 * 1024) ~kernel_path:bz_path
            ~kernel_config:env.Testkit.cfg ~seed:0L ()
        in
        let e = (env, vm, bz_path, bz_bytes, bz_vm) in
        Hashtbl.add envs preset e;
        e
  in
  let kinds = Array.of_list Inject.all in
  QCheck.Test.make ~count:40 ~name:"fault: armed boots never silently green"
    QCheck.(
      triple
        (int_bound (Array.length kinds - 1))
        (int_bound 10_000) Testkit.arb_preset)
    (fun (k, seed, preset) ->
      let env, vm, bz_path, bz_bytes, bz_vm = env_for preset in
      let kind = kinds.(k) in
      let is_bz =
        match kind with
        | Inject.Truncate_bzimage | Inject.Flip_bz_payload_crc -> true
        | _ -> false
      in
      let ctx, vm =
        if is_bz then
          ( armed_ctx env ~files:[ (bz_path, bz_bytes) ] ~kernel_path:bz_path
              kind ~seed,
            bz_vm )
        else (armed_ctx env kind ~seed, vm)
      in
      let r = Boot_supervisor.supervise ~seed:(Int64.of_int (seed + 1)) ~ctx vm in
      match r.Boot_supervisor.outcome with
      | Error _ -> true
      | Ok _ -> r.Boot_supervisor.events <> [])

let () =
  Alcotest.run "imk_fault"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "classification map" `Quick test_classify_map;
          Alcotest.test_case "programming errors unclassified" `Quick
            test_classify_rejects_programming_errors;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "recoverable partition" `Quick
            test_recoverable_partition;
        ] );
      ( "weather",
        [
          Alcotest.test_case "profiles round-trip" `Quick
            test_weather_profiles_roundtrip;
          Alcotest.test_case "calm is faultless" `Quick
            test_weather_calm_is_faultless;
          Alcotest.test_case "forecast deterministic" `Quick
            test_weather_forecast_deterministic;
          Alcotest.test_case "storm bursts windowed" `Quick
            test_weather_storm_bursts_are_windowed;
          Alcotest.test_case "flaky rates sane" `Quick test_weather_flaky_rates;
        ] );
      ( "inject",
        [
          Alcotest.test_case "arm is deterministic" `Quick
            test_arm_is_deterministic;
          Alcotest.test_case "bz kinds refuse a vmlinux" `Quick
            test_bz_kinds_refuse_vmlinux;
          Testkit.to_alcotest qcheck_flip_one_bit_flips_exactly_one;
        ] );
      ( "supervise",
        [
          Alcotest.test_case "clean boot" `Quick test_supervise_clean_boot;
          Alcotest.test_case "transient retried, backoff charged" `Quick
            test_transient_retried_with_paid_backoff;
          Alcotest.test_case "transient exhausts retries" `Quick
            test_transient_exhausts_retries;
          Alcotest.test_case "corruption is typed" `Quick
            test_corrupt_image_is_typed_failure;
          Alcotest.test_case "bad relocs re-derived" `Quick
            test_bad_relocs_rederived;
          Alcotest.test_case "arena survives failed attempts" `Quick
            test_failed_attempts_do_not_poison_arena;
          Alcotest.test_case "snapshot falls back to cold boot" `Quick
            test_snapshot_falls_back_to_cold_boot;
          Alcotest.test_case "recovery accounting" `Quick
            test_recovery_accounting;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "breaker opens, short-circuits, probes" `Quick
            test_breaker_opens_short_circuits_and_probes;
          Alcotest.test_case "failed probe re-opens" `Quick
            test_breaker_probe_failure_reopens;
          Alcotest.test_case "transients never trip the breaker" `Quick
            test_breaker_ignores_transients;
          Alcotest.test_case "retry budget fails fast when dry" `Quick
            test_retry_budget_fails_fast_when_dry;
          Alcotest.test_case "deadline abort recovers on a warm retry" `Quick
            test_deadline_aborts_cold_attempt_recovers_warm;
          Alcotest.test_case "double overrun is typed" `Quick
            test_deadline_double_overrun_is_typed;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "jobs-invariant under faults" `Quick
            test_faults_campaign_jobs_invariant;
          Alcotest.test_case "weathered replay deterministic" `Quick
            test_weathered_replay_is_deterministic;
          Testkit.to_alcotest qcheck_no_silent_success;
          Testkit.to_alcotest qcheck_weathered_supervision_total;
        ] );
    ]

(* Tests for Imk_vclock: clock arithmetic, trace phase accounting, and the
   calibrated cost model's invariants. *)

open Imk_vclock

let check = Alcotest.check
let int = Alcotest.int

let test_clock_basics () =
  let c = Clock.create () in
  check int "starts at 0" 0 (Clock.now c);
  Clock.advance c 5;
  Clock.advance c 7;
  check int "accumulates" 12 (Clock.now c);
  check int "elapsed" 7 (Clock.elapsed_since c 5);
  Clock.reset c;
  check int "reset" 0 (Clock.now c)

let test_clock_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Clock.advance: negative duration") (fun () ->
      Clock.advance c (-1))

let test_trace_breakdown () =
  let c = Clock.create () in
  let t = Trace.create c in
  Trace.with_span t Trace.In_monitor "load" (fun () -> Clock.advance c 100);
  Trace.with_span t Trace.Decompression "lz4" (fun () -> Clock.advance c 300);
  Trace.with_span t Trace.Linux_boot "init" (fun () -> Clock.advance c 50);
  check int "in-monitor" 100 (Trace.phase_total t Trace.In_monitor);
  check int "decompression" 300 (Trace.phase_total t Trace.Decompression);
  check int "linux boot" 50 (Trace.phase_total t Trace.Linux_boot);
  check int "bootstrap setup empty" 0 (Trace.phase_total t Trace.Bootstrap_setup);
  check int "total" 450 (Trace.total t)

let test_trace_nested_same_phase () =
  let c = Clock.create () in
  let t = Trace.create c in
  Trace.with_span t Trace.In_monitor "outer" (fun () ->
      Clock.advance c 10;
      Trace.with_span t Trace.In_monitor "inner" (fun () -> Clock.advance c 20);
      Clock.advance c 5);
  (* nested same-phase spans must not double count *)
  check int "no double count" 35 (Trace.phase_total t Trace.In_monitor)

let test_trace_display_name () =
  let c = Clock.create () in
  let t = Trace.create c in
  Trace.with_span t Trace.In_monitor "outer" (fun () ->
      Trace.with_span t Trace.In_monitor "inner" (fun () -> Clock.advance c 1));
  check
    Alcotest.(list (pair string string))
    "stored label, display name"
    [ ("+inner", "inner"); ("outer", "outer") ]
    (List.sort compare
       (List.map (fun s -> (s.Trace.label, Trace.display_name s)) (Trace.spans t)))

(* spans are listed as they close, so a nested span comes before the
   one that encloses it; a tracepoint lands where it is placed *)
let test_trace_closing_order () =
  let c = Clock.create () in
  let t = Trace.create c in
  Trace.with_span t Trace.In_monitor "outer" (fun () ->
      Trace.with_span t Trace.In_monitor "inner" (fun () -> Clock.advance c 1));
  Trace.tracepoint t Trace.Linux_boot "port_io";
  Trace.with_span t Trace.Linux_boot "init" (fun () -> Clock.advance c 2);
  check
    Alcotest.(list (pair string (pair int int)))
    "closing order"
    [ ("+inner", (0, 1)); ("outer", (0, 1)); ("port_io", (1, 1)); ("init", (1, 3)) ]
    (List.map
       (fun s -> (s.Trace.label, (s.Trace.start_ns, s.Trace.stop_ns)))
       (Trace.spans t))

let test_charge_fresh () =
  let total ?jitter_seed () =
    let trace, ch = Charge.fresh ?jitter_seed () in
    Charge.pay_span ch Trace.In_monitor "work" 1_000_000;
    Trace.total trace
  in
  check int "exact without a jitter seed" 1_000_000 (total ());
  check int "same seed, same jitter" (total ~jitter_seed:5L ())
    (total ~jitter_seed:5L ());
  check Alcotest.bool "jittered with a seed" true
    (total ~jitter_seed:5L () <> 1_000_000);
  let sched = Sched.create () in
  let tl = Sched.timeline sched in
  let trace, ch = Charge.fresh ~sched:tl () in
  check Alcotest.bool "records against the timeline" true
    (Trace.clock trace == Sched.timeline_clock tl);
  Sched.spawn sched tl (fun () -> Charge.pay_span ch Trace.In_monitor "w" 7);
  Sched.run sched;
  check int "scheduled charge" 7 (Trace.total trace)

let test_trace_exception_still_records () =
  let c = Clock.create () in
  let t = Trace.create c in
  (try
     Trace.with_span t Trace.Linux_boot "panic" (fun () ->
         Clock.advance c 42;
         failwith "guest panic")
   with Failure _ -> ());
  check int "span recorded" 42 (Trace.phase_total t Trace.Linux_boot)

let test_trace_reset () =
  let c = Clock.create () in
  let t = Trace.create c in
  Trace.with_span t Trace.In_monitor "x" (fun () -> Clock.advance c 9);
  Trace.reset t;
  check int "cleared" 0 (Trace.total t);
  check int "clock reset" 0 (Clock.now c)

let test_tracepoint_zero_length () =
  let c = Clock.create () in
  let t = Trace.create c in
  Trace.tracepoint t Trace.Linux_boot "port_io";
  check int "no duration" 0 (Trace.total t);
  check int "recorded" 1 (List.length (Trace.spans t))

let test_deadline_basics () =
  let c = Clock.create () in
  let d = Deadline.arm c ~label:"boot" ~budget_ns:100 in
  check Alcotest.bool "armed" true (Deadline.armed d);
  check int "budget" 100 (Deadline.budget_ns d);
  check Alcotest.string "label" "boot" (Deadline.label d);
  check int "full budget remaining" 100 (Deadline.remaining_ns d);
  Clock.advance c 60;
  check int "remaining after spend" 40 (Deadline.remaining_ns d);
  Deadline.check d;
  Clock.advance c 40;
  (* spending exactly the budget is not an overrun *)
  check Alcotest.bool "at the limit" false (Deadline.exceeded d);
  Deadline.check d;
  Clock.advance c 1;
  check Alcotest.bool "past the limit" true (Deadline.exceeded d);
  check int "remaining clamps at zero" 0 (Deadline.remaining_ns d);
  Alcotest.check_raises "typed overrun"
    (Deadline.Exceeded "boot: budget 100 ns overrun by 1 ns") (fun () ->
      Deadline.check d)

let test_deadline_rearm_and_disarm () =
  let c = Clock.create () in
  let d = Deadline.arm c ~label:"x" ~budget_ns:10 in
  Clock.advance c 50;
  (* a fresh budget counts from now, not from arm time *)
  Deadline.rearm d ~budget_ns:30;
  check int "rearmed remaining" 30 (Deadline.remaining_ns d);
  Clock.advance c 31;
  check Alcotest.bool "overrun again" true (Deadline.exceeded d);
  Deadline.disarm d;
  check Alcotest.bool "disarmed" false (Deadline.armed d);
  check Alcotest.bool "disarmed never exceeded" false (Deadline.exceeded d);
  Deadline.check d

let test_deadline_rejects_nonpositive_budget () =
  let c = Clock.create () in
  (match Deadline.arm c ~label:"x" ~budget_ns:0 with
  | (_ : Deadline.t) -> Alcotest.fail "zero budget armed"
  | exception Invalid_argument _ -> ());
  let d = Deadline.arm c ~label:"x" ~budget_ns:1 in
  match Deadline.rearm d ~budget_ns:(-1) with
  | () -> Alcotest.fail "negative budget rearmed"
  | exception Invalid_argument _ -> ()

let test_charge_span_enforces_deadline_at_boundary () =
  let c = Clock.create () in
  let t = Trace.create c in
  let ch = Charge.create t Cost_model.default in
  let d = Deadline.arm c ~label:"attempt" ~budget_ns:100 in
  Charge.set_deadline ch (Some d);
  Charge.span ch Trace.In_monitor "within" (fun () -> Clock.advance c 90);
  (* the overrunning phase completes its work and records its span;
     the typed overrun surfaces only at the phase boundary *)
  (try
     Charge.span ch Trace.In_monitor "overrun" (fun () -> Clock.advance c 50);
     Alcotest.fail "expected Deadline.Exceeded"
   with Deadline.Exceeded _ -> ());
  check int "both spans recorded" 140 (Trace.phase_total t Trace.In_monitor);
  (* an exception from the body wins over the deadline check *)
  Deadline.rearm d ~budget_ns:1;
  (try
     Charge.span ch Trace.Linux_boot "panic" (fun () ->
         Clock.advance c 10;
         (failwith "boom" : unit));
     Alcotest.fail "expected the body's exception"
   with Stdlib.Failure msg -> check Alcotest.string "body wins" "boom" msg);
  (* detaching the deadline stops enforcement *)
  Charge.set_deadline ch None;
  Charge.span ch Trace.In_monitor "unchecked" (fun () -> Clock.advance c 1_000)

let cm = Cost_model.default

let test_read_cost_monotone () =
  let small = Cost_model.read_cost cm ~cached:true (1 lsl 20) in
  let large = Cost_model.read_cost cm ~cached:true (1 lsl 24) in
  check Alcotest.bool "monotone in size" true (large > small);
  let cold = Cost_model.read_cost cm ~cached:false (1 lsl 20) in
  check Alcotest.bool "cold slower than cached" true (cold > small)

let test_read_cost_calibration () =
  (* 39 MiB cached at 8 GB/s should be around 5 ms, the AWS-kernel load
     time implied by Figure 9 *)
  let ns = Cost_model.read_cost cm ~cached:true (39 * 1024 * 1024) in
  let ms = Imk_util.Units.ns_to_ms ns in
  check Alcotest.bool "within [3,8] ms" true (ms > 3. && ms < 8.)

let test_guest_memcpy_slower () =
  let host = Cost_model.memcpy_cost cm ~in_guest:false (1 lsl 20) in
  let guest = Cost_model.memcpy_cost cm ~in_guest:true (1 lsl 20) in
  check Alcotest.bool "guest slower" true (guest > host)

let test_reloc_costs () =
  let monitor = Cost_model.reloc_cost cm ~in_guest:false ~entries:100_000 in
  let guest = Cost_model.reloc_cost cm ~in_guest:true ~entries:100_000 in
  check Alcotest.bool "guest relocs slower" true (guest > monitor);
  let fg =
    Cost_model.fg_reloc_cost cm ~in_guest:false ~entries:100_000 ~sections:40_000
  in
  check Alcotest.bool "fg adds binary search" true (fg > monitor)

let test_fg_reloc_scales_with_sections () =
  let few =
    Cost_model.fg_reloc_cost cm ~in_guest:false ~entries:10_000 ~sections:16
  in
  let many =
    Cost_model.fg_reloc_cost cm ~in_guest:false ~entries:10_000 ~sections:65536
  in
  check Alcotest.bool "deeper search costs more" true (many > few)

let test_decompress_rates_ordered () =
  (* Figure 3's premise: lz4 decompresses fastest, lzma slowest *)
  let rate c = Cost_model.decompress_rate_bps ~codec:c in
  check Alcotest.bool "lz4 > lzo" true (rate "lz4" > rate "lzo");
  check Alcotest.bool "lzo > gzip" true (rate "lzo" > rate "gzip");
  check Alcotest.bool "gzip > bzip2" true (rate "gzip" > rate "bzip2");
  check Alcotest.bool "bzip2 > xz" true (rate "bzip2" > rate "xz");
  check Alcotest.bool "xz > lzma" true (rate "xz" > rate "lzma")

let test_decompress_none_free () =
  check int "none costs nothing" 0
    (Cost_model.decompress_cost cm ~codec:"none" ~out_bytes:(1 lsl 30))

let test_decompress_unknown () =
  Alcotest.check_raises "unknown codec"
    (Invalid_argument "Cost_model.decompress_rate_bps: unknown codec zip")
    (fun () -> ignore (Cost_model.decompress_cost cm ~codec:"zip" ~out_bytes:1))

let test_jitter_positive_and_near () =
  let rng = Imk_entropy.Prng.create ~seed:77L in
  for _ = 1 to 200 do
    let v = Cost_model.jitter cm rng 10_000_000 in
    check Alcotest.bool "positive" true (v > 0);
    check Alcotest.bool "near original" true
      (v > 8_000_000 && v < 12_000_000)
  done

let test_trace_export_chrome_json () =
  let c = Clock.create () in
  let t = Trace.create c in
  Trace.with_span t Trace.In_monitor "load \"kernel\"" (fun () ->
      Clock.advance c 1_000_000);
  Trace.tracepoint t Trace.Linux_boot "init";
  let json = Trace_export.to_chrome_json ~process_name:"test" t in
  let contains needle =
    let n = String.length json and m = String.length needle in
    let rec go i = i + m <= n && (String.sub json i m = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "array" true (json.[0] = '[');
  check Alcotest.bool "escaped quotes" true
    (contains "load \\\"kernel\\\"");
  check Alcotest.bool "complete event" true (contains "\"ph\":\"X\"");
  check Alcotest.bool "instant event" true (contains "\"ph\":\"i\"");
  check Alcotest.bool "duration in us" true (contains "\"dur\":1000.000")

let qcheck_costs_nonnegative =
  QCheck.Test.make ~name:"all costs are non-negative" ~count:300
    QCheck.(pair (int_bound 100_000_000) (int_bound 1_000_000))
    (fun (bytes, entries) ->
      Cost_model.read_cost cm ~cached:true bytes >= 0
      && Cost_model.read_cost cm ~cached:false bytes >= 0
      && Cost_model.memcpy_cost cm ~in_guest:true bytes >= 0
      && Cost_model.zero_cost cm bytes >= 0
      && Cost_model.reloc_cost cm ~in_guest:true ~entries >= 0
      && Cost_model.fg_reloc_cost cm ~in_guest:false ~entries ~sections:1 >= 0)

let () =
  Alcotest.run "imk_vclock"
    [
      ( "clock",
        [
          Alcotest.test_case "basics" `Quick test_clock_basics;
          Alcotest.test_case "negative rejected" `Quick test_clock_negative;
        ] );
      ( "trace",
        [
          Alcotest.test_case "breakdown" `Quick test_trace_breakdown;
          Alcotest.test_case "nested same phase" `Quick
            test_trace_nested_same_phase;
          Alcotest.test_case "display name" `Quick test_trace_display_name;
          Alcotest.test_case "closing order" `Quick test_trace_closing_order;
          Alcotest.test_case "fresh boot clock" `Quick test_charge_fresh;
          Alcotest.test_case "exception safety" `Quick
            test_trace_exception_still_records;
          Alcotest.test_case "reset" `Quick test_trace_reset;
          Alcotest.test_case "tracepoint" `Quick test_tracepoint_zero_length;
          Alcotest.test_case "chrome export" `Quick
            test_trace_export_chrome_json;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "arm, spend, overrun" `Quick test_deadline_basics;
          Alcotest.test_case "rearm and disarm" `Quick
            test_deadline_rearm_and_disarm;
          Alcotest.test_case "non-positive budget rejected" `Quick
            test_deadline_rejects_nonpositive_budget;
          Alcotest.test_case "charge checks at phase boundary" `Quick
            test_charge_span_enforces_deadline_at_boundary;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "read cost monotone" `Quick test_read_cost_monotone;
          Alcotest.test_case "read cost calibration" `Quick
            test_read_cost_calibration;
          Alcotest.test_case "guest memcpy slower" `Quick
            test_guest_memcpy_slower;
          Alcotest.test_case "reloc costs" `Quick test_reloc_costs;
          Alcotest.test_case "fg reloc scales" `Quick
            test_fg_reloc_scales_with_sections;
          Alcotest.test_case "decompress rates ordered" `Quick
            test_decompress_rates_ordered;
          Alcotest.test_case "none decompression free" `Quick
            test_decompress_none_free;
          Alcotest.test_case "unknown codec" `Quick test_decompress_unknown;
          Alcotest.test_case "jitter" `Quick test_jitter_positive_and_near;
          Testkit.to_alcotest qcheck_costs_nonnegative;
        ] );
    ]

(* Tests for Imk_harness: workspace caching/registration, the boot runner's
   statistics, and smoke runs of representative experiments on shrunken
   kernels. *)

open Imk_harness
open Imk_kernel

let check = Alcotest.check
let int = Alcotest.int

let small_ws ?run () = Workspace.create ~scale:4 ~functions_override:50 ?run ()

let exp id = List.assoc id Experiments.registry

let with_jobs jobs = { Workspace.default_run with Workspace.jobs }

let vm ?(rando = Imk_monitor.Vm_config.Rando_kaslr) ws =
  let variant =
    if rando = Imk_monitor.Vm_config.Rando_off then Config.Nokaslr
    else Config.Kaslr
  in
  Imk_monitor.Vm_config.make ~rando
    ~relocs_path:
      (if variant = Config.Nokaslr then None
       else Some (Workspace.relocs_path ws Config.Aws variant))
    ~kernel_path:(Workspace.vmlinux_path ws Config.Aws variant)
    ~kernel_config:(Workspace.config ws Config.Aws variant)
    ~mem_bytes:(64 * 1024 * 1024) ()

let test_workspace_builds_once () =
  let ws = small_ws () in
  let a = Workspace.built ws Config.Aws Config.Kaslr in
  let b = Workspace.built ws Config.Aws Config.Kaslr in
  check Alcotest.bool "cached build" true (a == b)

let test_workspace_registers_images () =
  let ws = small_ws () in
  let path = Workspace.vmlinux_path ws Config.Lupine Config.Kaslr in
  check Alcotest.bool "on disk" true (Imk_storage.Disk.mem (Workspace.disk ws) path);
  let rpath = Workspace.relocs_path ws Config.Lupine Config.Kaslr in
  check Alcotest.bool "relocs on disk" true
    (Imk_storage.Disk.mem (Workspace.disk ws) rpath)

let test_workspace_bzimage () =
  let ws = small_ws () in
  let path =
    Workspace.bzimage_path ws Config.Aws Config.Nokaslr ~codec:"lz4"
      ~bz:Bzimage.Standard
  in
  check Alcotest.bool "bzimage on disk" true
    (Imk_storage.Disk.mem (Workspace.disk ws) path);
  (* second request returns the same artifact without error *)
  let path2 =
    Workspace.bzimage_path ws Config.Aws Config.Nokaslr ~codec:"lz4"
      ~bz:Bzimage.Standard
  in
  check Alcotest.string "same path" path path2

let test_workspace_functions_override () =
  let ws = small_ws () in
  let c = Workspace.config ws Config.Ubuntu Config.Fgkaslr in
  check int "override applied" 50 c.Config.functions

let test_boot_runner_stats () =
  let ws = small_ws () in
  Workspace.warm_all ws;
  let s =
    Boot_runner.boot_many ~warmups:1 ~runs:8 ~cache:(Workspace.cache ws) (vm ws)
  in
  check int "8 samples" 8 s.Boot_runner.total.Imk_util.Stats.n;
  check Alcotest.bool "min <= mean <= max" true
    (s.Boot_runner.total.Imk_util.Stats.min
     <= s.Boot_runner.total.Imk_util.Stats.mean
    && s.Boot_runner.total.Imk_util.Stats.mean
       <= s.Boot_runner.total.Imk_util.Stats.max);
  check Alcotest.bool "jitter spreads samples" true
    (s.Boot_runner.total.Imk_util.Stats.max
    > s.Boot_runner.total.Imk_util.Stats.min);
  check Alcotest.bool "phases sum to total" true
    (let sum =
       s.Boot_runner.in_monitor.Imk_util.Stats.mean
       +. s.Boot_runner.bootstrap.Imk_util.Stats.mean
       +. s.Boot_runner.decompression.Imk_util.Stats.mean
       +. s.Boot_runner.linux_boot.Imk_util.Stats.mean
     in
     abs_float (sum -. s.Boot_runner.total.Imk_util.Stats.mean) < 1000.)

let test_boot_many_parallel_identical () =
  (* jobs must never change the numbers: same seeds, per-worker cache
     clones, order-preserving aggregation *)
  let run ~warmups ~runs jobs =
    let ws = small_ws () in
    Workspace.warm_all ws;
    Boot_runner.boot_many ~warmups ~jobs ~arena:(Workspace.arena ws) ~runs
      ~cache:(Workspace.cache ws) (vm ws)
  in
  check Alcotest.bool "phase_stats bit-identical" true
    (run ~warmups:2 ~runs:6 1 = run ~warmups:2 ~runs:6 4);
  (* and without warmups, where run 1 doubles as the priming boot *)
  check Alcotest.bool "warmups:0 bit-identical" true
    (run ~warmups:0 ~runs:5 1 = run ~warmups:0 ~runs:5 3)

let test_empty_phase_reports_zero_count () =
  (* a direct boot has no decompression phase; its summary must say
     n = 0, not fabricate a zero sample *)
  let ws = small_ws () in
  Workspace.warm_all ws;
  let s =
    Boot_runner.boot_many ~warmups:1 ~runs:3 ~arena:(Workspace.arena ws)
      ~cache:(Workspace.cache ws)
      (vm ~rando:Imk_monitor.Vm_config.Rando_off ws)
  in
  check int "no decompression samples" 0
    s.Boot_runner.decompression.Imk_util.Stats.n;
  check int "3 totals" 3 s.Boot_runner.total.Imk_util.Stats.n;
  check (Alcotest.float 0.) "empty phase mean is 0" 0.
    (Boot_runner.ms s.Boot_runner.decompression)

let test_ms_keeps_fractional_ns () =
  let s = Imk_util.Stats.summarize [ 1.; 2. ] in
  check (Alcotest.float 1e-15) "fractional ns survive" 1.5e-6
    (Boot_runner.ms s)

let contains haystack needle =
  let rec go i =
    i + String.length needle <= String.length haystack
    && (String.sub haystack i (String.length needle) = needle || go (i + 1))
  in
  go 0

let test_telemetry_json () =
  let o = exp "fig6" ~runs:2 (small_ws ()) in
  let rows = o.Experiments.telemetry in
  check int "one row per method" 4 (List.length rows);
  check Alcotest.bool "labelled" true
    (List.exists (fun (r : Telemetry.row) -> r.Telemetry.label = "lz4") rows);
  let json =
    Telemetry.to_json ~experiment:"fig6" ~runs:2 ~jobs:1 ~scale:4
      ~functions:(Some 50) ~wall_clock_s:0.25 rows
  in
  check Alcotest.bool "has wall clock" true
    (contains json "\"wall_clock_s\": 0.250");
  check Alcotest.bool "has experiment" true
    (contains json "\"experiment\": \"fig6\"");
  check Alcotest.bool "has label" true (contains json "\"label\": \"lz4\"");
  check Alcotest.bool "has p99" true (contains json "\"p99_ms\"")

(* ---- schema 2: round-trips, traps, duplicate labels, the gate ---- *)

let mk_file ?(experiment = "x") rows =
  {
    Telemetry.schema = Telemetry.schema_version;
    experiment;
    runs = 3;
    jobs = 1;
    scale = 4;
    functions = None;
    wall_clock_s = 0.1;
    rows;
  }

let render ?(experiment = "x") rows =
  Telemetry.to_json ~experiment ~runs:3 ~jobs:1 ~scale:4 ~functions:None
    ~wall_clock_s:0.1 rows

let mk_row label samples phases =
  {
    Telemetry.label;
    total = Imk_util.Stats.summarize samples;
    phases = List.map (fun (p, s) -> (p, Imk_util.Stats.summarize s)) phases;
  }

let test_schema2_roundtrip () =
  (* to_json -> of_json preserves every summary field to the emitted
     %.6f ms (1 ns) precision, phases included *)
  let o = exp "fig6" ~runs:2 (small_ws ()) in
  let rows = o.Experiments.telemetry in
  let f =
    Telemetry.of_json
      (Telemetry.to_json ~experiment:"fig6" ~runs:2 ~jobs:1 ~scale:4
         ~functions:(Some 50) ~wall_clock_s:0.25 rows)
  in
  check int "schema" Telemetry.schema_version f.Telemetry.schema;
  check Alcotest.string "experiment" "fig6" f.Telemetry.experiment;
  check (Alcotest.option int) "functions" (Some 50) f.Telemetry.functions;
  check int "row count" (List.length rows) (List.length f.Telemetry.rows);
  List.iter2
    (fun (a : Telemetry.row) (b : Telemetry.row) ->
      check Alcotest.string "label" a.Telemetry.label b.Telemetry.label;
      let close what x y = check (Alcotest.float 10.) what x y in
      close "p50" a.Telemetry.total.Imk_util.Stats.p50
        b.Telemetry.total.Imk_util.Stats.p50;
      close "p99" a.Telemetry.total.Imk_util.Stats.p99
        b.Telemetry.total.Imk_util.Stats.p99;
      close "stddev" a.Telemetry.total.Imk_util.Stats.stddev
        b.Telemetry.total.Imk_util.Stats.stddev;
      check int "phase count"
        (List.length a.Telemetry.phases)
        (List.length b.Telemetry.phases);
      (* phase means, weighted by how often each phase fired, recover
         the headline total (absent phases are absent, never zero-padded) *)
      let weighted (r : Telemetry.row) =
        List.fold_left
          (fun acc (_, (s : Imk_util.Stats.summary)) ->
            acc
            +. s.Imk_util.Stats.mean
               *. float_of_int s.Imk_util.Stats.n
               /. float_of_int r.Telemetry.total.Imk_util.Stats.n)
          0. r.Telemetry.phases
      in
      close "phase sums = total" b.Telemetry.total.Imk_util.Stats.mean
        (weighted b))
    rows f.Telemetry.rows

let test_schema2_empty_and_escaping () =
  let f = Telemetry.of_json (render []) in
  check int "no rows" 0 (List.length f.Telemetry.rows);
  let wild = "aws/\"kaslr\"\n\tbs\\128M" in
  let row = mk_row wild [ 1.0; 2.0; 3.0 ] [ ("in-monitor", [ 1.0 ]) ] in
  let f = Telemetry.of_json (render [ row ]) in
  match f.Telemetry.rows with
  | [ r ] ->
      check Alcotest.string "wild label round-trips" wild r.Telemetry.label;
      check (Alcotest.float 1e-9) "p50" 2.0 r.Telemetry.total.Imk_util.Stats.p50
  | rs -> Alcotest.failf "expected 1 row, got %d" (List.length rs)

let test_duplicate_labels_rejected () =
  let rows = [ mk_row "same" [ 1.0 ] []; mk_row "same" [ 2.0 ] [] ] in
  check Alcotest.bool "to_json raises" true
    (match render rows with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_schema1_rejected () =
  (* a schema-1 file carried only means; reading it as distributions
     must fail loudly, not fabricate percentiles *)
  let v1 =
    "{ \"schema\": 1, \"experiment\": \"fig9\", \"runs\": 20, \"jobs\": 1,\n\
    \  \"scale\": 16, \"functions\": null, \"wall_clock_s\": 19.1,\n\
    \  \"boot_ms\": [ { \"label\": \"aws/kaslr\", \"mean_ms\": 85.4 } ] }"
  in
  check Alcotest.bool "schema 1 refused" true
    (match Telemetry.of_json v1 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check Alcotest.bool "garbage refused" true
    (match Telemetry.of_json "{ \"schema\": 2, " with
    | _ -> false
    | exception Imk_util.Minjson.Malformed _ -> true)

let test_value_column_traps () =
  let vc = Telemetry.value_column in
  check (Alcotest.option int) "atoms is not ms" None
    (vc [ "kernel"; "atoms" ]);
  check (Alcotest.option int) "programs is not ms" None
    (vc [ "rando"; "programs"; "loss %" ]);
  check (Alcotest.option int) "total ms preferred" (Some 2)
    (vc [ "kernel"; "atoms"; "total ms"; "boot ms" ]);
  check (Alcotest.option int) "boot ms fallback" (Some 1)
    (vc [ "kernel"; "boot ms" ]);
  check (Alcotest.option int) "token suffix matches" (Some 1)
    (vc [ "kernel"; "restore ms" ]);
  check (Alcotest.option int) "bare ms matches" (Some 0) (vc [ "ms" ])

let test_baseline_gate () =
  let rows =
    [
      mk_row "a" [ 10.0; 11.0; 12.0 ] [ ("in-monitor", [ 4.0; 4.5; 5.0 ]) ];
      mk_row "b" [ 20.0; 21.0; 22.0 ] [];
    ]
  in
  let current = mk_file rows in
  let diff baseline = Telemetry.diff ~baseline ~current in
  let lines = Alcotest.(list string) in
  check lines "a file against itself" [] (diff current);
  check lines "jobs and wall clock are never compared" []
    (diff { current with Telemetry.jobs = 4; wall_clock_s = 9.9 });
  (* one ulp on one phase's p99: exactly one line, naming all three *)
  let nudged =
    mk_file
      (List.map
         (fun (r : Telemetry.row) ->
           {
             r with
             Telemetry.phases =
               List.map
                 (fun (p, (s : Imk_util.Stats.summary)) ->
                   (p, { s with Imk_util.Stats.p99 = Float.succ s.p99 }))
                 r.Telemetry.phases;
           })
         rows)
  in
  (match diff nudged with
  | [ l ] ->
      check Alcotest.bool "names label, phase and field" true
        (contains l "a in-monitor p99:")
  | ls -> Alcotest.failf "one-ulp p99: expected 1 line, got %d" (List.length ls));
  (* drift is drift in either direction: a baseline that reads slower
     (the current run faster) differs too *)
  let slower =
    mk_file
      [
        mk_row "a" [ 15.0; 16.5; 18.0 ] [ ("in-monitor", [ 4.0; 4.5; 5.0 ]) ];
        mk_row "b" [ 20.0; 21.0; 22.0 ] [];
      ]
  in
  check Alcotest.bool "a faster total differs" true
    (List.exists (fun l -> contains l "a total p50") (diff slower));
  check lines "a changed phase list"
    [ "a: phases [] in baseline, [in-monitor] in current run" ]
    (diff (mk_file [ mk_row "a" [ 10.0; 11.0; 12.0 ] []; List.nth rows 1 ]));
  (* a label on only one side, whichever side it is on *)
  let only_a = mk_file [ List.hd rows ] in
  check lines "only in current" [ "b: only in current run" ] (diff only_a);
  check lines "only in baseline" [ "b: only in baseline" ]
    (Telemetry.diff ~baseline:current ~current:only_a);
  check lines "different runs"
    [ "runs: baseline 4, current 3" ]
    (diff { current with Telemetry.runs = 4 })

let test_trace_tap_fires () =
  let ws = small_ws () in
  Workspace.warm_all ws;
  let vm = vm ~rando:Imk_monitor.Vm_config.Rando_off ws in
  let count = ref 0 in
  let seen_total = ref 0 in
  let tap tr =
    incr count;
    seen_total := Imk_vclock.Trace.total tr
  in
  let trace, _ =
    Boot_runner.boot_once ~jitter:false ~tap ~seed:1L ~cache:(Workspace.cache ws)
      vm
  in
  check int "tap fired once" 1 !count;
  check int "tap saw the finished trace" (Imk_vclock.Trace.total trace)
    !seen_total;
  (* the workspace's run config carries the tap into every experiment
     boot: fig6 boots 4 methods x (5 warmups + 1 run) *)
  let count = Atomic.make 0 in
  let run =
    { (with_jobs 2) with Workspace.trace = Some (fun _ -> Atomic.incr count) }
  in
  ignore (exp "fig6" ~runs:1 (small_ws ~run ()));
  check int "every fig6 boot tapped" 24 (Atomic.get count);
  ignore (exp "fig6" ~runs:1 (small_ws ()));
  check int "no tap, no fire" 24 (Atomic.get count)

let test_boot_once_spans () =
  let ws = small_ws () in
  Workspace.warm_all ws;
  let vm =
    Imk_monitor.Vm_config.make ~rando:Imk_monitor.Vm_config.Rando_off
      ~kernel_path:
        (Workspace.bzimage_path ws Config.Aws Config.Nokaslr ~codec:"lz4"
           ~bz:Bzimage.Standard)
      ~flavor:Imk_monitor.Vm_config.Bzimage_support
      ~kernel_config:(Workspace.config ws Config.Aws Config.Nokaslr)
      ~mem_bytes:(64 * 1024 * 1024) ()
  in
  let trace, _ = Boot_runner.boot_once ~jitter:false ~seed:1L ~cache:(Workspace.cache ws) vm in
  let spans = Boot_runner.spans_by_label trace in
  check Alcotest.bool "has loader-setup" true
    (List.mem_assoc "loader-setup" spans);
  check Alcotest.bool "has decompress span" true
    (List.mem_assoc "decompress-lz4" spans)

(* smoke runs of the cheap experiments; assert structural soundness and
   the headline directions *)

let note_contains o needle =
  List.exists
    (fun n ->
      let rec go i =
        i + String.length needle <= String.length n
        && (String.sub n i (String.length needle) = needle || go (i + 1))
      in
      String.length needle <= String.length n && go 0)
    o.Experiments.notes

let test_table1_smoke () =
  let o = exp "table1" (small_ws ()) in
  check Alcotest.string "id" "table1" o.Experiments.id;
  let rendered = Imk_util.Table.render o.Experiments.table in
  check Alcotest.bool "has all nine kernels" true
    (List.for_all
       (fun k ->
         let rec go i =
           i + String.length k <= String.length rendered
           && (String.sub rendered i (String.length k) = k || go (i + 1))
         in
         go 0)
       [ "lupine-nokaslr"; "aws-fgkaslr"; "ubuntu-kaslr" ])

let test_fig6_smoke () =
  let o = exp "fig6" ~runs:2 (small_ws ()) in
  check Alcotest.bool "direct fastest" true
    (note_contains o "> uncompressed(direct)")

let test_fig3_smoke () =
  let o = exp "fig3" ~runs:2 (small_ws ()) in
  check Alcotest.bool "lz4 wins" true (note_contains o "fastest codec: lz4")

let test_security_smoke () =
  let o = exp "security" (small_ws ()) in
  check Alcotest.string "id" "security" o.Experiments.id;
  check
    Alcotest.(list string)
    "typed verdicts"
    [ "offset uniformity"; "shuffle-position uniformity"; "leak-and-locate exposure" ]
    (List.map (fun v -> v.Experiments.name) o.Experiments.verdicts);
  List.iter
    (fun v -> Alcotest.failf "%s failed: %s" v.Experiments.name v.Experiments.detail)
    (Experiments.failures o)

let test_registry_lookup () =
  let ids = List.map fst Experiments.registry in
  check Alcotest.bool "fig9 known" true (List.mem "fig9" ids);
  check Alcotest.bool "unknown" false (List.mem "fig99" ids);
  check int "22 experiments" 22 (List.length ids);
  check int "ids unique" 22 (List.length (List.sort_uniq compare ids))

(* the gate bench/main.exe applies: any failing verdict fails the run *)
let test_failing_verdict_fails_gate () =
  let o =
    {
      Experiments.id = "x";
      title = "x";
      table = Imk_util.Table.create ~headers:[ "a" ];
      notes = [];
      telemetry = [];
      verdicts = [];
    }
  in
  let v name pass = { Experiments.name; pass; detail = name } in
  check int "no verdicts pass" 0 (List.length (Experiments.failures o));
  check int "passing verdicts pass" 0
    (List.length
       (Experiments.failures { o with verdicts = [ v "a" true; v "b" true ] }));
  match
    Experiments.failures
      { o with verdicts = [ v "a" true; v "soundness" false; v "c" true ] }
  with
  | [ f ] -> check Alcotest.string "the failing verdict" "soundness" f.Experiments.name
  | fs -> Alcotest.failf "expected 1 failure, got %d" (List.length fs)

(* Campaign.run ≡ the sequential protocol for any fan-out: each task
   records which files its cache held before it read one, so the result
   exposes exactly the cache state every task saw *)
let qcheck_campaign_sequential =
  let names = Array.init 5 (Printf.sprintf "f%d") in
  QCheck.Test.make ~count:40
    ~name:"campaign: results = sequential Array.init, shared cache primed only"
    QCheck.(triple (int_range 1 4) (int_bound 12) (int_bound 12))
    (fun (jobs, tasks, prime) ->
      let disk = Imk_storage.Disk.create () in
      Array.iter (fun name -> Imk_storage.Disk.add disk ~name (Bytes.make 8 'x')) names;
      let cache = Imk_storage.Page_cache.create disk in
      let cached c =
        List.filter (Imk_storage.Page_cache.is_cached c) (Array.to_list names)
      in
      let got =
        Campaign.run ~jobs ~prime ~cache ~tasks (fun ~cache i ->
            let before = cached cache in
            ignore (Imk_storage.Page_cache.read cache names.((i * 3) mod 5));
            (i, before))
      in
      let read_by n =
        List.filter
          (fun name ->
            List.exists (fun j -> names.((j * 3) mod 5) = name) (List.init n Fun.id))
          (Array.to_list names)
      in
      let prime = min prime tasks in
      got = Array.init tasks (fun i -> (i, read_by (min i prime)))
      && cached cache = read_by prime)

let test_throughput_smoke () =
  let o = exp "throughput" ~runs:5 (small_ws ()) in
  check Alcotest.string "id" "throughput" o.Experiments.id;
  (* the headline direction: fgkaslr costs more throughput than kaslr *)
  check Alcotest.bool "ordering note present" true
    (note_contains o "FGKASLR costs")

let test_fig9_parallel_identical () =
  (* cell-level fan-out over private cache clones renders the exact
     table and telemetry the sequential run does — fig4 too, whose cold
     first cell leaves a dropped cache for every later cell to clone *)
  List.iter
    (fun id ->
      let run jobs =
        let o = exp id ~runs:2 (small_ws ~run:(with_jobs jobs) ()) in
        (Imk_util.Table.render o.Experiments.table, o.Experiments.telemetry)
      in
      let table1, rows1 = run 1 in
      let table3, rows3 = run 3 in
      check Alcotest.string (id ^ " table identical") table1 table3;
      check
        Alcotest.(list string)
        (id ^ " telemetry identical") []
        (Telemetry.diff_rows ~baseline:rows1 ~current:rows3))
    [ "fig9"; "fig4" ]

(* --trace keeps the first boot the tap sees: a primed first cell makes
   that cell 0's first boot, booted on the calling domain, at any jobs —
   for a figure's grid and for a supervised campaign's cells alike. The
   domain check fails deterministically without the priming (a fanned-out
   cell 0 boots on a worker); the span check is what --trace writes *)
let test_first_trace_jobs_invariant () =
  let first_spans id jobs =
    let seen = Atomic.make None in
    let tap tr = ignore (Atomic.compare_and_set seen None (Some (Domain.self (), tr))) in
    let run = { (with_jobs jobs) with Workspace.trace = Some tap } in
    ignore (exp id ~runs:1 (small_ws ~run ()));
    match Atomic.get seen with
    | Some (domain, tr) ->
        check Alcotest.bool
          (Printf.sprintf "%s jobs %d: first boot on the calling domain" id jobs)
          true
          (domain = Domain.self ());
        List.map
          (fun (s : Imk_vclock.Trace.span) ->
            Printf.sprintf "%s %d-%d" s.label s.start_ns s.stop_ns)
          (Imk_vclock.Trace.spans tr)
    | None -> Alcotest.failf "%s tapped no boot" id
  in
  List.iter
    (fun id ->
      check
        Alcotest.(list string)
        (id ^ " first trace, jobs 1 = jobs 3")
        (first_spans id 1) (first_spans id 3))
    [ "fig9"; "faults" ]

let test_zygote_smoke () =
  let o = exp "ablation-zygote" ~runs:3 (small_ws ()) in
  check Alcotest.bool "restores faster" true (note_contains o "faster than boots")

let () =
  Alcotest.run "imk_harness"
    [
      ( "workspace",
        [
          Alcotest.test_case "builds once" `Quick test_workspace_builds_once;
          Alcotest.test_case "registers images" `Quick
            test_workspace_registers_images;
          Alcotest.test_case "bzimage" `Quick test_workspace_bzimage;
          Alcotest.test_case "functions override" `Quick
            test_workspace_functions_override;
        ] );
      ( "boot_runner",
        [
          Alcotest.test_case "stats" `Quick test_boot_runner_stats;
          Alcotest.test_case "span labels" `Quick test_boot_once_spans;
          Alcotest.test_case "parallel identical" `Quick
            test_boot_many_parallel_identical;
          Alcotest.test_case "empty phase n=0" `Quick
            test_empty_phase_reports_zero_count;
          Alcotest.test_case "ms precision" `Quick test_ms_keeps_fractional_ns;
          Alcotest.test_case "trace tap" `Quick test_trace_tap_fires;
        ] );
      ("campaign", [ Testkit.to_alcotest qcheck_campaign_sequential ]);
      ( "telemetry",
        [
          Alcotest.test_case "json" `Quick test_telemetry_json;
          Alcotest.test_case "schema2 roundtrip" `Quick test_schema2_roundtrip;
          Alcotest.test_case "empty + escaping" `Quick
            test_schema2_empty_and_escaping;
          Alcotest.test_case "duplicate labels" `Quick
            test_duplicate_labels_rejected;
          Alcotest.test_case "schema1 rejected" `Quick test_schema1_rejected;
          Alcotest.test_case "value_column traps" `Quick
            test_value_column_traps;
          Alcotest.test_case "baseline gate" `Quick test_baseline_gate;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1" `Quick test_table1_smoke;
          Alcotest.test_case "fig3" `Slow test_fig3_smoke;
          Alcotest.test_case "fig6" `Quick test_fig6_smoke;
          Alcotest.test_case "security" `Quick test_security_smoke;
          Alcotest.test_case "registry" `Quick test_registry_lookup;
          Alcotest.test_case "failing verdict fails the gate" `Quick
            test_failing_verdict_fails_gate;
          Alcotest.test_case "throughput" `Slow test_throughput_smoke;
          Alcotest.test_case "fig9 parallel" `Slow test_fig9_parallel_identical;
          Alcotest.test_case "first trace at any jobs" `Slow
            test_first_trace_jobs_invariant;
          Alcotest.test_case "zygote" `Slow test_zygote_smoke;
        ] );
    ]

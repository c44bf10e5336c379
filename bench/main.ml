(* Benchmark harness: regenerates every table and figure of the paper
   (via Imk_harness.Experiments) and runs real-CPU micro-benchmarks of the
   primitive operations with Bechamel.

   Usage:
     bench/main.exe                 run everything (default runs/config)
     bench/main.exe --exp fig9      one experiment
     bench/main.exe --runs 100      paper-strength repetitions
     bench/main.exe --functions 400 smaller synthetic kernels (smoke)
     bench/main.exe --jobs 4        fan boots out over 4 domains
     bench/main.exe --exp fig9 --baseline BENCH_fig9.json
                                    diff against a saved run; exit 1 on
                                    p50 regressions (--threshold PCT)
     bench/main.exe --exp fig5 --trace boot.json
                                    dump one boot's span timeline in
                                    Chrome tracing format
     bench/main.exe --exp micro     only the Bechamel micro-benchmarks
     bench/main.exe --no-plan-cache disable the shared boot-plan cache
                                    (A/B baseline; telemetry is
                                    bit-identical either way)
     bench/main.exe --contend 2,4   capacities for the fig9 contention
                                    row: disk-bandwidth units, decompress
                                    slots (default 1,1 — full contention)
     bench/main.exe --exp diffcheck --mutate
                                    plant one fault per mutable oracle;
                                    the campaign must report each caught
                                    and print a shrunk reproducer
     bench/main.exe --exp fleet --requests 1000000
                                    simulated requests per fleet cell

   Each experiment also writes BENCH_<id>.json (schema 2: wall-clock
   seconds plus per-row boot-time distributions and per-phase
   breakdowns) into the current directory, and exits 1 on a failing
   verdict. *)

module H = Imk_harness

let runs = ref 20
let exps = ref []
let functions = ref None
let scale = ref 16
let jobs = ref (Domain.recommended_domain_count ())
let baseline_path = ref None
let threshold = ref H.Telemetry.default_threshold_pct
let trace_path = ref None
let no_plan_cache = ref false
let mutate = ref false
let requests = ref None
let contend = ref H.Workspace.default_run.contend

let usage () =
  prerr_endline
    ("usage: main.exe [--exp <id>]... [--runs N] [--functions N] [--scale N] [--jobs N]\n\
     \               [--baseline BENCH_<id>.json] [--threshold PCT] [--trace out.json]\n\
     \               [--no-plan-cache] [--mutate] [--requests N] [--contend D,S]\n\
     experiments: "
    ^ String.concat " " (List.map fst H.Experiments.registry)
    ^ " micro all");
  exit 2

let rec parse = function
  | [] -> ()
  | "--exp" :: v :: rest ->
      exps := v :: !exps;
      parse rest
  | "--runs" :: v :: rest ->
      runs := int_of_string v;
      parse rest
  | "--functions" :: v :: rest ->
      functions := Some (int_of_string v);
      parse rest
  | "--scale" :: v :: rest ->
      scale := int_of_string v;
      parse rest
  | "--jobs" :: v :: rest ->
      jobs := int_of_string v;
      parse rest
  | "--baseline" :: v :: rest ->
      baseline_path := Some v;
      parse rest
  | "--threshold" :: v :: rest ->
      threshold := float_of_string v;
      parse rest
  | "--trace" :: v :: rest ->
      trace_path := Some v;
      parse rest
  | "--no-plan-cache" :: rest ->
      no_plan_cache := true;
      parse rest
  | "--mutate" :: rest ->
      mutate := true;
      parse rest
  | "--requests" :: v :: rest ->
      requests := Some (int_of_string v);
      parse rest
  | "--contend" :: v :: rest ->
      (match String.split_on_char ',' v with
      | [ d; s ] -> contend := (int_of_string d, int_of_string s)
      | _ -> usage ());
      parse rest
  | _ -> usage ()

let print_output (o : H.Experiments.output) =
  Printf.printf "\n=== %s ===\n" o.H.Experiments.title;
  Imk_util.Table.print o.H.Experiments.table;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) o.H.Experiments.notes;
  flush stdout

(* --baseline: read once up front so a missing or malformed file fails
   before any experiment burns wall-clock time. Any parse failure must
   fail the gate, not pass it — so no handler here. *)
let baseline =
  lazy
    (Option.map
       (fun p -> H.Telemetry.of_json (H.Telemetry.read_file p))
       !baseline_path)

let gate_failed = ref false

(* Diff one experiment's fresh rows against the baseline file and print
   the per-label / per-phase p50 delta table. Only headline totals trip
   the gate; phase rows say where a regression lives. *)
let check_baseline id (current : H.Telemetry.file) =
  match Lazy.force baseline with
  | None -> ()
  | Some base when base.H.Telemetry.experiment <> id ->
      Printf.printf
        "  baseline: file is for experiment %s, not %s — skipping the gate\n"
        base.H.Telemetry.experiment id
  | Some base ->
      let module T = H.Telemetry in
      let deltas = T.diff ~threshold_pct:!threshold ~baseline:base ~current () in
      let tbl =
        Imk_util.Table.create
          ~headers:
            [ "label"; "phase"; "base p50 ms"; "cur p50 ms"; "delta %"; "gate" ]
      in
      List.iter
        (fun (d : T.delta) ->
          Imk_util.Table.add_row tbl
            [
              d.T.d_label;
              Option.value ~default:"total" d.T.d_phase;
              Printf.sprintf "%.4f" d.T.baseline_p50;
              Printf.sprintf "%.4f" d.T.current_p50;
              Printf.sprintf "%+.2f" d.T.change_pct;
              (if d.T.regression then "REGRESSION"
               else if d.T.degenerate then "n<2"
               else "ok");
            ])
        deltas;
      Printf.printf "\n  --- baseline diff (%s, threshold %+.1f%% on total p50) ---\n"
        id !threshold;
      Imk_util.Table.print tbl;
      let only_base, only_cur = T.missing_labels ~baseline:base ~current in
      List.iter
        (fun l -> Printf.printf "  note: label %S only in baseline\n" l)
        only_base;
      List.iter
        (fun l -> Printf.printf "  note: label %S only in current run\n" l)
        only_cur;
      (match T.regressions deltas with
      | [] -> Printf.printf "  baseline: no regressions\n"
      | rs ->
          gate_failed := true;
          Printf.printf "  baseline: %d regression(s) beyond %+.1f%%\n"
            (List.length rs) !threshold);
      flush stdout

(* --trace: the workspace's tap keeps the first finished boot of the
   invocation. It fires on whatever domain booted (a worker under
   --jobs), so the capture is mutex-guarded; the trace is written after
   the experiment that produced it. *)
let captured = ref None
let capture_lock = Mutex.create ()
let trace_written = ref false

let capture tr =
  Mutex.lock capture_lock;
  if !captured = None then captured := Some tr;
  Mutex.unlock capture_lock

let write_trace id =
  match (!trace_path, !captured) with
  | Some _, _ when !trace_written -> ()
  | Some path, Some tr ->
      Imk_vclock.Trace_export.write_file tr ~path ~process_name:(id ^ " boot");
      trace_written := true;
      Printf.printf "  trace: first %s boot -> %s\n" id path
  | Some _, None ->
      Printf.printf "  trace: %s booted nothing, no trace written\n" id
  | None, _ -> ()

(* run one experiment under the wall clock and drop BENCH_<id>.json next
   to the invocation — the real-time cost of the simulation, as opposed
   to the virtual boot times in the table itself. A failing verdict
   fails the invocation: CI runs the correctness campaigns as gates. *)
let timed_experiment id (f : ?runs:int -> H.Workspace.t -> H.Experiments.output)
    ws =
  let t0 = Unix.gettimeofday () in
  let o = f ~runs:!runs ws in
  let wall = Unix.gettimeofday () -. t0 in
  write_trace id;
  print_output o;
  List.iter
    (fun (v : H.Experiments.verdict) ->
      gate_failed := true;
      Printf.printf "  gate: %s failed verdict %S\n" id v.H.Experiments.name)
    (H.Experiments.failures o);
  let rows = H.Telemetry.rows o in
  (match
     (rows, H.Telemetry.value_column (Imk_util.Table.headers o.H.Experiments.table))
   with
  | [], Some _ ->
      Printf.printf
        "  warning: %s renders a millisecond column but exported no telemetry \
         rows\n"
        id
  | _ -> ());
  let json =
    H.Telemetry.to_json ~experiment:id ~runs:!runs ~jobs:!jobs ~scale:!scale
      ~functions:!functions ~wall_clock_s:wall rows
  in
  let path = "BENCH_" ^ id ^ ".json" in
  H.Telemetry.write_file path json;
  Printf.printf "  wall clock: %.2f s (jobs=%d) -> %s (schema %d)\n" wall !jobs
    path H.Telemetry.schema_version;
  check_baseline id (H.Telemetry.of_json json);
  flush stdout

(* --- Bechamel micro-benchmarks: the primitive costs behind the cost
   model, measured on the real CPU --- *)

let micro () =
  let open Bechamel in
  let small_cfg () =
    {
      (Imk_kernel.Config.make ~scale:1 Imk_kernel.Config.Aws Imk_kernel.Config.Kaslr)
      with Imk_kernel.Config.functions = 400;
    }
  in
  let built = Imk_kernel.Image.build (small_cfg ()) in
  let input = built.Imk_kernel.Image.vmlinux in
  let sample = Bytes.sub input 0 (min (256 * 1024) (Bytes.length input)) in
  let codec_tests =
    List.concat_map
      (fun codec ->
        let open Imk_compress in
        let compressed = codec.Codec.compress sample in
        [
          Test.make
            ~name:(codec.Codec.name ^ "-compress-256k")
            (Staged.stage (fun () -> ignore (codec.Codec.compress sample)));
          Test.make
            ~name:(codec.Codec.name ^ "-decompress-256k")
            (Staged.stage (fun () -> ignore (codec.Codec.decompress compressed)));
        ])
      [ Imk_compress.Lz4.codec; Imk_compress.Gzip.codec ]
  in
  let reloc_test =
    Test.make ~name:"kaslr-apply-relocs"
      (Staged.stage (fun () ->
           let mem = Imk_memory.Guest_mem.create ~size:(64 * 1024 * 1024) in
           let phys = Imk_memory.Addr.default_phys_load in
           Imk_randomize.Loadelf.place mem built.Imk_kernel.Image.elf
             ~phys_load:phys ~plan:None;
           Imk_randomize.Kaslr.apply ~mem ~relocs:built.Imk_kernel.Image.relocs
             ~site_pa:(fun va -> va - Imk_memory.Addr.link_base + phys)
             ~new_va_of:(Imk_randomize.Kaslr.delta_new_va ~delta:0x200000)))
  in
  let shuffle_test =
    let rng = Imk_entropy.Prng.create ~seed:3L in
    let sections =
      Array.init 4000 (fun i -> (Imk_memory.Addr.link_base + (i * 512), 512))
    in
    Test.make ~name:"fgkaslr-plan-4000-sections"
      (Staged.stage (fun () ->
           ignore
             (Imk_randomize.Fgkaslr.make_plan rng ~sections
                ~text_base:Imk_memory.Addr.link_base)))
  in
  (* the two derivations the boot-plan cache amortizes: what one cache
     hit saves per boot, in real ns *)
  let elf_test =
    Test.make ~name:"elf-parse"
      (Staged.stage (fun () -> ignore (Imk_elf.Parser.parse input)))
  in
  let relocs_decode_test =
    let encoded = built.Imk_kernel.Image.relocs_bytes in
    Test.make ~name:"relocs-decode"
      (Staged.stage (fun () -> ignore (Imk_elf.Relocation.decode encoded)))
  in
  (* the two per-boot byte-moving hot loops the table-driven decoder and
     batched relocation apply target: raw inflate (Huffman + LZ77, no
     frame/CRC overhead) and raw relocation patching on a pre-placed
     image (delta 0 keeps the apply idempotent across iterations while
     doing every read, validation and store) *)
  let inflate_test =
    let payload = Imk_compress.Gzip.encode_payload sample in
    let orig_len = Bytes.length sample in
    Test.make ~name:"inflate"
      (Staged.stage (fun () ->
           ignore (Imk_compress.Gzip.decode_payload payload ~orig_len)))
  in
  (* the zero-copy boot-path primitives: the slice-by-8 CRC against its
     byte-at-a-time reference (every frame check and plan-cache probe
     pays this), and the sink decode against the allocating copy decode
     it replaces in the loader *)
  let crc32_test =
    Test.make ~name:"crc32-256k"
      (Staged.stage (fun () ->
           ignore (Imk_util.Crc.crc32 sample 0 (Bytes.length sample))))
  in
  let crc32_ref_test =
    Test.make ~name:"crc32-ref-256k"
      (Staged.stage (fun () ->
           ignore (Imk_util.Crc.crc32_ref sample 0 (Bytes.length sample))))
  in
  let gzip_into_test =
    let compressed = Imk_compress.Gzip.codec.Imk_compress.Codec.compress sample in
    let dst = Bytes.make (Bytes.length sample) '\000' in
    Test.make ~name:"gzip-into"
      (Staged.stage (fun () ->
           ignore
             (Imk_compress.Gzip.codec.Imk_compress.Codec.decompress_into
                compressed ~dst ~dst_off:0)))
  in
  let reloc_apply_test =
    let mem = Imk_memory.Guest_mem.create ~size:(64 * 1024 * 1024) in
    let phys = Imk_memory.Addr.default_phys_load in
    Imk_randomize.Loadelf.place mem built.Imk_kernel.Image.elf ~phys_load:phys
      ~plan:None;
    Test.make ~name:"reloc-apply"
      (Staged.stage (fun () ->
           Imk_randomize.Kaslr.apply ~mem ~relocs:built.Imk_kernel.Image.relocs
             ~site_pa:(fun va -> va - Imk_memory.Addr.link_base + phys)
             ~new_va_of:(Imk_randomize.Kaslr.delta_new_va ~delta:0)))
  in
  (* the snapshot pair: capture walks the booted guest's dirty ranges
     (copy-free on the tracker), restore rebuilds a fresh guest from the
     frames — the zygote-pool hot path *)
  let boot_result =
    let open Imk_monitor in
    let cfg = small_cfg () in
    let disk = Imk_storage.Disk.create () in
    let cache = Imk_storage.Page_cache.create disk in
    Imk_storage.Disk.add disk ~name:"bench.vmlinux"
      built.Imk_kernel.Image.vmlinux;
    Imk_storage.Disk.add disk ~name:"bench.relocs"
      built.Imk_kernel.Image.relocs_bytes;
    let vm =
      Vm_config.make ~rando:Vm_config.Rando_kaslr
        ~relocs_path:(Some "bench.relocs") ~mem_bytes:(64 * 1024 * 1024)
        ~kernel_path:"bench.vmlinux" ~kernel_config:cfg ~seed:7L ()
    in
    let clock = Imk_vclock.Clock.create () in
    let trace = Imk_vclock.Trace.create clock in
    let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
    Vmm.boot ch cache vm
  in
  let snapshot_capture_test =
    Test.make ~name:"snapshot-capture"
      (Staged.stage (fun () ->
           ignore (Imk_monitor.Snapshot.capture boot_result)))
  in
  let snapshot_restore_test =
    let snap = Imk_monitor.Snapshot.capture boot_result in
    let clock = Imk_vclock.Clock.create () in
    let trace = Imk_vclock.Trace.create clock in
    let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
    Test.make ~name:"snapshot-restore"
      (Staged.stage (fun () ->
           ignore (Imk_monitor.Snapshot.restore ch snap ~working_set_pages:64)))
  in
  let tests =
    Test.make_grouped ~name:"primitives" ~fmt:"%s/%s"
      (codec_tests
      @ [
          reloc_test; shuffle_test; elf_test; relocs_decode_test; inflate_test;
          crc32_test; crc32_ref_test; gzip_into_test; reloc_apply_test;
          snapshot_capture_test; snapshot_restore_test;
        ])
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n=== Micro-benchmarks (real CPU, Bechamel) ===\n";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-42s %14.0f ns/run\n" name est)
    (List.sort compare !rows);
  flush stdout

let () =
  parse (List.tl (Array.to_list Sys.argv));
  jobs := max 1 !jobs;
  if fst !contend < 1 || snd !contend < 1 then usage ();
  let requested = if !exps = [] then [ "all" ] else List.rev !exps in
  let run =
    {
      H.Workspace.jobs = !jobs;
      contend = !contend;
      trace = Option.map (fun _ -> capture) !trace_path;
      mutate = !mutate;
      requests = !requests;
    }
  in
  let ws =
    H.Workspace.create ~scale:!scale ?functions_override:!functions
      ~plan_cache:(not !no_plan_cache) ~run ()
  in
  List.iter
    (fun id ->
      match id with
      | "all" ->
          List.iter (fun (eid, f) -> timed_experiment eid f ws) H.Experiments.registry;
          micro ()
      | "micro" -> micro ()
      | id -> (
          match List.assoc_opt id H.Experiments.registry with
          | Some f -> timed_experiment id f ws
          | None ->
              Printf.eprintf "unknown experiment %s\n" id;
              usage ()))
    requested;
  if !gate_failed then exit 1

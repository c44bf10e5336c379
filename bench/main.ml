(* Benchmark harness: regenerates every table and figure of the paper
   (via Imk_harness.Experiments) on the virtual clock. Host time — how
   fast the simulator itself runs — is perf/'s to measure.

   Usage:
     bench/main.exe                 run everything (default runs/config)
     bench/main.exe --exp fig9      one experiment
     bench/main.exe --runs 100      paper-strength repetitions
     bench/main.exe --functions 400 smaller synthetic kernels (smoke)
     bench/main.exe --jobs 4        fan boots out over 4 domains
     bench/main.exe --exp fig9 --baseline BENCH_fig9.json
                                    compare against a saved run exactly;
                                    exit 1 on any difference
     bench/main.exe --exp fig5 --trace boot.json
                                    dump one boot's span timeline in
                                    Chrome tracing format
     bench/main.exe --no-plan-cache disable the shared boot-plan cache
                                    (A/B baseline; telemetry is
                                    bit-identical either way)
     bench/main.exe --contend 2,4   capacities for the fig9 contention
                                    row: disk-bandwidth units, decompress
                                    slots (default 1,1 — full contention)
     bench/main.exe --exp fleet --requests 1000000
                                    simulated requests per fleet cell

   Each experiment also writes BENCH_<id>.json (schema 2: wall-clock
   seconds plus per-row boot-time distributions and per-phase
   breakdowns) into the current directory, and exits 1 on a failing
   verdict or on any difference from the --baseline file. *)

module H = Imk_harness

let runs = ref 20
let exps = ref []
let functions = ref None
let scale = ref 16
let jobs = ref (Domain.recommended_domain_count ())
let baseline_path = ref None
let trace_path = ref None
let no_plan_cache = ref false
let requests = ref None
let contend = ref H.Workspace.default_run.contend

let usage () =
  prerr_endline
    ("usage: main.exe [--exp <id>]... [--runs N] [--functions N] [--scale N] [--jobs N]\n\
     \               [--baseline BENCH_<id>.json] [--trace out.json]\n\
     \               [--no-plan-cache] [--requests N] [--contend D,S]\n\
     experiments: "
    ^ String.concat " " (List.map fst H.Experiments.registry)
    ^ " all");
  exit 2

(* an integer flag's value: anything unparsable or below [min] is a
   usage error, never an uncaught exception or a degenerate run *)
let int_flag ?(min = min_int) v =
  match int_of_string_opt v with Some n when n >= min -> n | _ -> usage ()

let rec parse = function
  | [] -> ()
  | "--exp" :: v :: rest ->
      exps := v :: !exps;
      parse rest
  | "--runs" :: v :: rest ->
      runs := int_flag ~min:1 v;
      parse rest
  | "--functions" :: v :: rest ->
      functions := Some (int_flag ~min:1 v);
      parse rest
  | "--scale" :: v :: rest ->
      scale := int_flag ~min:1 v;
      parse rest
  | "--jobs" :: v :: rest ->
      jobs := int_flag ~min:1 v;
      parse rest
  | "--baseline" :: v :: rest ->
      baseline_path := Some v;
      parse rest
  | "--trace" :: v :: rest ->
      trace_path := Some v;
      parse rest
  | "--no-plan-cache" :: rest ->
      no_plan_cache := true;
      parse rest
  | "--requests" :: v :: rest ->
      requests := Some (int_flag ~min:1 v);
      parse rest
  | "--contend" :: v :: rest ->
      (match String.split_on_char ',' v with
      | [ d; s ] -> contend := (int_flag ~min:1 d, int_flag ~min:1 s)
      | _ -> usage ());
      parse rest
  | _ -> usage ()

let print_output (o : H.Experiments.output) =
  Printf.printf "\n=== %s ===\n" o.H.Experiments.title;
  Imk_util.Table.print o.H.Experiments.table;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) o.H.Experiments.notes;
  flush stdout

(* --baseline: read before the first experiment runs, so a missing or
   malformed file fails before any output and before the run rewrites
   BENCH_<id>.json — the very file a baseline usually is. A baseline
   for an experiment not requested is a usage error, never a skipped
   gate. *)
let read_baseline requested =
  Option.map
    (fun path ->
      let base =
        match H.Telemetry.of_json (H.Telemetry.read_file path) with
        | f -> f
        | exception
            ( Sys_error msg
            | Invalid_argument msg
            | Imk_util.Minjson.Malformed msg ) ->
            Printf.eprintf "baseline %s: %s\n" path msg;
            exit 2
      in
      let exp = base.H.Telemetry.experiment in
      if not (List.mem exp requested) then (
        Printf.eprintf "baseline %s is for experiment %s, which is not requested\n"
          path exp;
        usage ());
      (path, base))
    !baseline_path

let gate_failed = ref false

(* virtual telemetry is deterministic, so the gate has no tolerance:
   one line on a match, else every difference and exit 1 *)
let check_baseline baseline id (current : H.Telemetry.file) =
  match baseline with
  | Some (path, base) when base.H.Telemetry.experiment = id -> (
      match H.Telemetry.diff ~baseline:base ~current with
      | [] ->
          Printf.printf "  baseline: identical to %s (%d rows)\n" path
            (List.length current.H.Telemetry.rows)
      | ds ->
          gate_failed := true;
          Printf.printf "  baseline: %d difference(s) from %s (summaries in ns)\n"
            (List.length ds) path;
          List.iter (Printf.printf "  baseline:   %s\n") ds)
  | _ -> ()

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
let timed_experiment ~baseline id
    (f : ?runs:int -> H.Workspace.t -> H.Experiments.output) ws =
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
  let rows = o.H.Experiments.telemetry in
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
  check_baseline baseline id (H.Telemetry.of_json json);
  flush stdout

let () =
  parse (List.tl (Array.to_list Sys.argv));
  let requested = if !exps = [] then [ "all" ] else List.rev !exps in
  (* every id resolves before anything runs, so an unknown one is a
     usage error with empty stdout, never a partial run *)
  let selected =
    List.concat_map
      (function
        | "all" -> H.Experiments.registry
        | id -> (
            match List.assoc_opt id H.Experiments.registry with
            | Some f -> [ (id, f) ]
            | None ->
                Printf.eprintf "unknown experiment %s\n" id;
                usage ()))
      requested
  in
  let baseline = read_baseline (List.map fst selected) in
  let run =
    {
      H.Workspace.jobs = !jobs;
      contend = !contend;
      trace = Option.map (fun _ -> capture) !trace_path;
      requests = !requests;
    }
  in
  let ws =
    H.Workspace.create ~scale:!scale ?functions_override:!functions
      ~plan_cache:(not !no_plan_cache) ~run ()
  in
  List.iter (fun (id, f) -> timed_experiment ~baseline id f ws) selected;
  if !gate_failed then exit 1

(* Host-time benchmark of the simulator (perf/README.md).

   Usage:
     perf/main.exe                          every workload, each in its own
                                            process; writes BENCH_perf.json
     perf/main.exe --workload NAME          one workload, in this process
       --seed S        inputs of op i derive from (S, i)      (default 1)
       --seconds N     length of the timed phase               (default 10)
       --trace 0|1     1: a traced run printing the per-layer metrics
       --trace-out F   with --trace 1: the traced run's host spans, as
                       Chrome-trace JSON
       --quick         400-function kernels, 5 ops (2 fleet cells of 5k
                       requests, 4 guests per contended op), one set-up:
                       the smoke-test size

   Each metric prints as "<workload> <metric> <value> <unit>"; the last
   line is one JSON object {correct, attempted, failed, metrics}. A failed
   correctness check or replay-fidelity check exits 1. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("host_ms_p50", "ms");
    ("alloc_mb_per_op", "MiB");
    ("peak_heap_mb", "MiB");
    ("virt_ms_p50", "sim_ms");
    ("virt_ms_p90", "sim_ms");
  ]

(* the calls the replays time, as "<layer>.<call>" after lib/'s modules *)
let timed_calls =
  [
    "storage.read"; "plan_cache.lookup"; "elf.parse"; "compress.unpack";
    "bootstrap.loader"; "randomize.shuffle"; "randomize.place";
    "randomize.apply"; "randomize.fixup"; "guest.boot_info"; "guest.verify";
    "memory.borrow"; "memory.release"; "memory.stage"; "memory.create";
    "snapshot.load"; "snapshot.restore"; "fleet.sim"; "fleet.arrival";
  ]

let per_layer =
  List.concat_map (fun c -> [ (c ^ "_us", "us"); (c ^ "_alloc_kw", "kword") ]) timed_calls
  @ [
      ("storage.read_bytes", "B");
      ("plan_cache.hit_ratio", "fraction");
      ("elf.calls_per_op", "count");
      ("compress.ns_per_byte", "ns/B");
      ("compress.out_bytes", "B");
      ("bootstrap.self_us", "us");
      ("randomize.sites", "count");
      ("randomize.sections", "count");
      ("randomize.ns_per_site", "ns");
      ("guest.functions", "count");
      ("memory.dirty_bytes", "B");
      ("memory.arena_hit_ratio", "fraction");
      ("snapshot.frame_bytes", "B");
      ("supervisor.self_us", "us");
      ("sched.overhead_us", "us");
      ("sched.slowdown", "ratio");
      ("sched.makespan_ms", "sim_ms");
      ("fleet.ns_per_request", "ns");
      ("fleet.hit_rate", "fraction");
      ("fleet.drop_rate", "fraction");
      ("kernel.build_s", "s");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("vmm.other_us", "us");
      ("trace.coverage", "fraction");
      ("trace.overhead_pct", "%");
      ("host.reference_ms", "ms");
      ("host.raw_ms_p50", "ms");
      ("host.raw_ms_p90", "ms");
    ]

let workload = ref None
let seed = ref 1
let seconds = ref 10.
let trace = ref false
let trace_out = ref None
let quick = ref false

let usage () =
  Printf.eprintf
    "usage: main.exe [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]\n\
    \                [--trace-out FILE] [--quick]\n\
     workloads: %s\n"
    (String.concat " " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let rec parse = function
  | [] -> ()
  | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
  | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
  | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
  | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      parse rest
  | "--trace-out" :: v :: rest ->
      trace_out := Some v;
      parse rest
  | "--quick" :: rest ->
      quick := true;
      parse rest
  | _ -> usage ()

let median xs = Workloads.pctl xs 50.
let mib_of_words w = w *. 8. /. 1048576.

(* A fixed reference kernel, timed three times before the set-ups, twice a
   second through the timed loop and three times after it: integer mixing
   and a 32 MiB memory sweep, the two things the workloads spend host time
   on. It runs stdlib code only and allocates nothing (samples go to a
   float array), so neither a change to lib/ nor the workload's heap
   moves it, and allocation counts do not depend on how often it ran.
   End-to-end host times are scaled by nominal / measured, i.e. reported
   at the speed of a quiet machine, which takes most of a shared
   machine's drift out of run-to-run comparisons; the traced run prints
   the raw numbers. *)
let reference_nominal_ns = 12e6
let reference_buf = Bytes.make (32 * 1024 * 1024) '\000'
let reference_ns = Array.make 4096 0.
let reference_runs = ref 0

let reference () =
  let t = Span.now_ns () in
  let h = ref 0 in
  for i = 1 to 3_000_000 do
    h := ((!h lxor i) * 0x9E3779B1) + (i lsr 3)
  done;
  ignore (Sys.opaque_identity !h);
  Bytes.fill reference_buf 0 (Bytes.length reference_buf) 'a';
  Bytes.fill reference_buf 0 (Bytes.length reference_buf) '\000';
  if !reference_runs < Array.length reference_ns then begin
    reference_ns.(!reference_runs) <- float_of_int (Span.now_ns () - t);
    incr reference_runs
  end

let reference_median () =
  median (Array.to_list (Array.sub reference_ns 0 !reference_runs))

(* --- one workload, in this process --- *)

type 'a loop = {
  outs : 'a list;  (** in op order *)
  host_ns : float list;
  wall_ns : int;
  alloc_words : float;
  minor_gcs : int;
  major_gcs : int;
}

(* every run makes at least this many ops, whatever its speed *)
let min_ops = 3

(* closed loop, one client: the next op starts when the previous ends.
   Runs until [budget_ns] has passed (at least [min_ops] ops) or [cap] ops ran;
   the reference runs between ops twice a second, outside [wall_ns]. *)
let timed_loop ~budget_ns ~cap f =
  let minor0, promoted0, major0 = Gc.counters () in
  let gc0 = Gc.quick_stat () in
  let t0 = Span.now_ns () in
  let paused = ref 0 and last_ref = ref t0 in
  let rec go i outs host =
    let now = Span.now_ns () in
    if i >= cap || (i >= min_ops && now - t0 - !paused >= budget_ns) then (outs, host)
    else begin
      if now - !last_ref >= 500_000_000 then begin
        reference ();
        last_ref := Span.now_ns ();
        paused := !paused + (!last_ref - now)
      end;
      let t = Span.now_ns () in
      let o = f i in
      let dt = Span.now_ns () - t in
      go (i + 1) (o :: outs) (float_of_int dt :: host)
    end
  in
  let outs, host = go 0 [] [] in
  let wall_ns = Span.now_ns () - t0 - !paused in
  let minor1, promoted1, major1 = Gc.counters () in
  let gc1 = Gc.quick_stat () in
  {
    outs = List.rev outs;
    host_ns = List.rev host;
    wall_ns;
    alloc_words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* over the first [min_ops] ops only: how many more a run makes depends on
   the machine's speed, and the digest must not *)
let digest outs =
  List.fold_left
    (fun h (o : Workloads.op_out) ->
      List.fold_left
        (fun h v -> Hashtbl.hash (h, v))
        h o.Workloads.fingerprint)
    0
    (List.filteri (fun i _ -> i < min_ops) outs)

(* the per-layer metrics of a traced run, from its spans and counters *)
let layer_metrics (inst : Workloads.instance) ~n ~counters ~untraced ~builds_s =
  let spans = Span.all () in
  let nf = float_of_int n in
  let totals = Hashtbl.create 32 in
  let add k v =
    Hashtbl.replace totals k (v +. Option.value ~default:0. (Hashtbl.find_opt totals k))
  in
  (* the real call ("op") and the replay are timed without the
     benchmark's own check.* probes; the layer sum is the replay's direct
     children *)
  let roots = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      let us = float_of_int (Span.duration s) /. 1e3 in
      (match s.Span.name with
      | "op" | "replay" -> Hashtbl.replace roots s.Span.id (s.Span.name, ref us, ref 0.)
      | _ ->
          if not (Span.is_check s) then begin
            add (s.Span.name ^ "_us") us;
            add (s.Span.name ^ "_alloc_kw") (s.Span.alloc_words /. 1e3)
          end);
      match Hashtbl.find_opt roots s.Span.parent with
      | Some (_, time, layers) ->
          if Span.is_check s then time := !time -. us else layers := !layers +. us
      | None -> ())
    spans;
  let replays =
    Hashtbl.fold
      (fun _ (name, time, layers) acc ->
        add (name ^ "_us") !time;
        if name = "replay" then (!time, !layers) :: acc else acc)
      roots []
  in
  let replay_total = List.fold_left (fun a (r, _) -> a +. r) 0. replays in
  let layer_total = List.fold_left (fun a (_, l) -> a +. l) 0. replays in
  List.iter (List.iter (fun (k, v) -> add k v)) counters;
  let get k = Option.value ~default:0. (Hashtbl.find_opt totals k) /. nf in
  let replay_p50 = median (List.map fst replays) in
  let untraced_p50_us = median untraced.host_ns /. 1e3 in
  let ops = float_of_int (List.length untraced.outs) in
  List.map (fun (k, _) -> (k, get k)) (List.filter (fun (k, _) -> Hashtbl.mem totals k) per_layer)
  @ inst.Workloads.derived get
  @ inst.Workloads.trace_summary ()
  @ [
      ("kernel.build_s", median builds_s);
      ("gc.minor_collections", float_of_int untraced.minor_gcs /. ops);
      ("gc.major_collections", float_of_int untraced.major_gcs /. ops);
      ("vmm.other_us", (replay_total -. layer_total) /. nf);
      ("trace.coverage", layer_total /. replay_total);
      ("trace.overhead_pct", (replay_p50 -. untraced_p50_us) /. untraced_p50_us *. 100.);
    ]

let run_one (w : Workloads.t) =
  let size = if !quick then Workloads.quick else Workloads.full in
  for _ = 1 to 3 do reference () done;
  (* set up several times and report the median, so work moved into
     set-up shows; the last instance is the one measured *)
  let setups = if !quick then 1 else 5 in
  let setup_s = ref [] and builds_s = ref [] and inst = ref None in
  for _ = 1 to setups do
    inst := None;
    Gc.compact ();
    Workloads.build_ns := 0;
    let t0 = Span.now_ns () in
    inst := Some (w.Workloads.setup size ~seed:!seed);
    setup_s := (float_of_int (Span.now_ns () - t0) /. 1e9) :: !setup_s;
    builds_s := (float_of_int !Workloads.build_ns /. 1e9) :: !builds_s
  done;
  let inst = Option.get !inst in
  let cap = if !quick then w.Workloads.cap_ops else max_int in
  let budget s = int_of_float (s *. 1e9) in
  let phase = if !trace then !seconds /. 2. else !seconds in
  (* failures beyond an op's own checks: the op-0 rerun, replay fidelity *)
  let errors = ref [] and check_failures = ref 0 in
  let fail_check msg =
    incr check_failures;
    errors := msg :: !errors
  in
  let checked i =
    match inst.Workloads.run_op i with
    | o -> o
    | exception e ->
        errors := Printf.sprintf "op %d raised %s" i (Printexc.to_string e) :: !errors;
        { Workloads.units = 1; virt = []; fingerprint = []; failed = 1 }
  in
  let untraced = timed_loop ~budget_ns:(budget phase) ~cap checked in
  (* op 0 again: same virtual total and layout *)
  let first = List.hd untraced.outs in
  let again = checked 0 in
  if again.Workloads.fingerprint <> first.Workloads.fingerprint then
    fail_check "op 0 did not reproduce its virtual total and layout";
  for _ = 1 to 3 do reference () done;
  let ref_ns = reference_median () in
  let speed = reference_nominal_ns /. ref_ns in
  let attempted = ref (List.length untraced.outs + 1) in
  let metrics =
    if not !trace then begin
      let units = List.fold_left (fun a o -> a + o.Workloads.units) 0 untraced.outs in
      let p50, p90 =
        inst.Workloads.virt_quantiles
          (List.filter (fun o -> o.Workloads.virt <> []) untraced.outs)
      in
      [
        ("setup_s", median !setup_s *. speed);
        ("ops_per_s", float_of_int units /. (float_of_int untraced.wall_ns *. speed /. 1e9));
        ("host_ms_p50", median untraced.host_ns *. speed /. 1e6);
        ("alloc_mb_per_op", mib_of_words untraced.alloc_words /. float_of_int units);
        ("peak_heap_mb", mib_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words));
        ("virt_ms_p50", p50 /. 1e6);
        ("virt_ms_p90", p90 /. 1e6);
      ]
    end
    else begin
      let counters = ref [] in
      let traced_op i =
        Span.set_op i;
        match inst.Workloads.trace_op i with
        | c -> counters := c :: !counters
        | exception Workloads.Diverged what ->
            fail_check (Printf.sprintf "op %d: replay diverged: %s" i what)
      in
      let traced = timed_loop ~budget_ns:(budget phase) ~cap (fun i -> traced_op i) in
      let n = List.length traced.outs in
      attempted := !attempted + n;
      Option.iter
        (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc (Span.to_chrome (Span.all ()))))
        !trace_out;
      layer_metrics inst ~n ~counters:!counters ~untraced ~builds_s:!builds_s
      @ [
          ("host.reference_ms", ref_ns /. 1e6);
          ("host.raw_ms_p50", median untraced.host_ns /. 1e6);
          ("host.raw_ms_p90", Workloads.pctl untraced.host_ns 90. /. 1e6);
        ]
    end
  in
  let listed = if !trace then per_layer else end_to_end in
  List.iter
    (fun (k, _) -> if not (List.mem_assoc k listed) then failwith ("unlisted metric " ^ k))
    metrics;
  let value k = Option.value ~default:0. (List.assoc_opt k metrics) in
  List.iter (fun e -> prerr_endline ("perf: " ^ w.Workloads.name ^ ": " ^ e)) !errors;
  let failed =
    List.fold_left (fun a o -> a + o.Workloads.failed) !check_failures (again :: untraced.outs)
  in
  let correct = failed = 0 in
  List.iter
    (fun (k, unit) -> Printf.printf "%s %s %.6g %s\n" w.Workloads.name k (value k) unit)
    listed;
  Printf.printf "%s virt_digest %08x hash\n" w.Workloads.name (digest untraced.outs);
  let json_metrics =
    List.map
      (fun (k, unit) ->
        let v = value k in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
          unit)
      listed
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted failed
    (String.concat ", " json_metrics);
  exit (if correct then 0 else 1)

(* --- every workload, each in its own process --- *)

let run_all () =
  let exe = Sys.executable_name in
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let args =
          [ exe; "--workload"; w.Workloads.name; "--seed"; string_of_int !seed;
            "--seconds"; Printf.sprintf "%g" !seconds;
            "--trace"; (if !trace then "1" else "0") ]
          @ (if !quick then [ "--quick" ] else [])
          @ (match !trace_out with
            | Some f ->
                [ "--trace-out";
                  Filename.concat (Filename.dirname f)
                    (w.Workloads.name ^ "-" ^ Filename.basename f) ]
            | None -> [])
        in
        let ic = Unix.open_process_args_in exe (Array.of_list args) in
        let lines = In_channel.input_lines ic in
        let status = Unix.close_process_in ic in
        List.iter print_endline lines;
        flush stdout;
        let last = List.nth_opt lines (List.length lines - 1) in
        let digest =
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ _; "virt_digest"; d; _ ] -> Some d
              | _ -> None)
            lines
        in
        (w.Workloads.name, status = Unix.WEXITED 0, last, digest))
      Workloads.all
  in
  let entry (name, _, last, digest) =
    Printf.sprintf "    %S: {\"virt_digest\": %S, \"result\": %s}" name
      (Option.value ~default:"" digest)
      (Option.value ~default:"null" last)
  in
  Out_channel.with_open_text "BENCH_perf.json" (fun oc ->
      Printf.fprintf oc
        "{\n  \"schema\": 1,\n  \"seed\": %d,\n  \"seconds\": %g,\n  \"trace\": %b,\n  \"quick\": %b,\n  \"workloads\": {\n%s\n  }\n}\n"
        !seed !seconds !trace !quick
        (String.concat ",\n" (List.map entry results)));
  exit (if List.for_all (fun (_, ok, _, _) -> ok) results then 0 else 1)

let () =
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> run_all ()
  | Some name -> (
      match List.find_opt (fun w -> w.Workloads.name = name) Workloads.all with
      | Some w -> run_one w
      | None -> usage ())

open Imk_vclock

type phase_stats = {
  in_monitor : Imk_util.Stats.summary;
  bootstrap : Imk_util.Stats.summary;
  decompression : Imk_util.Stats.summary;
  linux_boot : Imk_util.Stats.summary;
  total : Imk_util.Stats.summary;
}

let ms s = Imk_util.Units.ns_float_to_ms s.Imk_util.Stats.mean

let boot_once ?(jitter = true) ?tap ?mem ?plans ~seed ~cache vm =
  let trace, ch = Charge.fresh ?jitter_seed:(if jitter then Some seed else None) () in
  let result =
    Imk_monitor.Vmm.boot ?mem ?plans ch cache
      { vm with Imk_monitor.Vm_config.seed }
  in
  (match tap with Some f -> f trace | None -> ());
  (trace, result)

(* every campaign's priming boot uses this seed, so the first boot (and
   the --trace file) is the same at any jobs *)
let warm_seed = 1001L
let run_seed i = Int64.of_int (2000 + i)
let contend_seed ~run ~slot = Int64.of_int (3000 + (run * 256) + slot)

(* a phase the boot never entered (direct boots have no decompression)
   reports 0 ns; drop it so its summary says n = 0 instead of averaging
   fabricated zero samples *)
let record_trace trace =
  let breakdown =
    List.filter_map
      (fun (p, ns) -> if ns = 0 then None else Some (p, float_of_int ns))
      (Trace.breakdown trace)
  in
  (breakdown, float_of_int (Trace.total trace))

let summarize = function
  | [] -> Imk_util.Stats.empty
  | samples -> Imk_util.Stats.summarize samples

(* summaries over the records newest first — the sample order the
   sequential fold has always produced, so float sums are identical
   whatever the fan-out was *)
let summarize_recorded recorded =
  let newest_first = List.rev (Array.to_list recorded) in
  let phase p =
    summarize (List.filter_map (fun (b, _) -> List.assoc_opt p b) newest_first)
  in
  {
    in_monitor = phase Trace.In_monitor;
    bootstrap = phase Trace.Bootstrap_setup;
    decompression = phase Trace.Decompression;
    linux_boot = phase Trace.Linux_boot;
    total = summarize (List.map snd newest_first);
  }

let boot_many ?(cold = false) ?(jobs = 1) ?tap ?plans ~runs ~cache vm =
  (* one full boot: its phase breakdown (as floats, the exact samples
     the sequential path has always recorded) and total *)
  let boot ~cache ~seed =
    if cold then Imk_storage.Page_cache.drop_caches cache;
    record_trace (fst (boot_once ?tap ?plans ~seed ~cache vm))
  in
  (* the priming boot then the runs, one task each *)
  let recorded =
    Campaign.run ~jobs ~cache ~tasks:(1 + runs) (fun ~cache t ->
        boot ~cache ~seed:(if t = 0 then warm_seed else run_seed t))
  in
  summarize_recorded (Array.sub recorded 1 runs)

(* --- contended boots on the shared event timeline (DESIGN.md §10) --- *)

type contended_stats = {
  per_boot : phase_stats;
  makespan : Imk_util.Stats.summary;
}

let boot_contended ?(jobs = 1) ?tap ?plans ~capacities ~n ~runs ~cache vm =
  if n < 1 then invalid_arg "Boot_runner.boot_contended: n < 1";
  if runs < 0 then invalid_arg "Boot_runner.boot_contended: negative runs";
  let disk_capacity, decompress_slots = capacities in
  (* one run = a fresh scheduler booting [n] guests concurrently; every
     input is a pure function of the run index (seeds, jitter, the
     scheduler's seq-stamped event order) *)
  let one_run ~cache r =
    let sched = Imk_vclock.Sched.create ~disk_capacity ~decompress_slots () in
    let traces =
      Array.init n (fun s ->
          let tl = Imk_vclock.Sched.timeline sched in
          let seed = contend_seed ~run:r ~slot:s in
          let trace, ch = Charge.fresh ~jitter_seed:seed ~sched:tl () in
          let vm = { vm with Imk_monitor.Vm_config.seed } in
          Imk_vclock.Sched.spawn sched tl (fun () ->
              ignore (Imk_monitor.Vmm.boot ?plans ch cache vm));
          trace)
    in
    Imk_vclock.Sched.run sched;
    Option.iter (fun f -> Array.iter f traces) tap;
    (Array.map record_trace traces, float_of_int (Imk_vclock.Sched.now sched))
  in
  (* one solo boot primes the shared cache; each run then boots against
     a private clone *)
  let per_run =
    Campaign.run ~jobs ~cache ~tasks:(1 + runs) (fun ~cache t ->
        if t = 0 then begin
          ignore (boot_once ?tap ?plans ~seed:warm_seed ~cache vm);
          ([||], 0.)
        end
        else one_run ~cache t)
  in
  let per_run = Array.to_list (Array.sub per_run 1 runs) in
  {
    per_boot = summarize_recorded (Array.concat (List.map fst per_run));
    makespan = summarize (List.map snd per_run);
  }

let spans_by_label trace =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let label = Trace.display_name s in
      let prev = Option.value ~default:0 (Hashtbl.find_opt acc label) in
      Hashtbl.replace acc label (prev + (s.stop_ns - s.start_ns)))
    (Trace.spans trace);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

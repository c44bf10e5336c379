open Imk_vclock

type phase_stats = {
  in_monitor : Imk_util.Stats.summary;
  bootstrap : Imk_util.Stats.summary;
  decompression : Imk_util.Stats.summary;
  linux_boot : Imk_util.Stats.summary;
  total : Imk_util.Stats.summary;
}

let ms s = Imk_util.Units.ns_float_to_ms s.Imk_util.Stats.mean

let jitter_rng seed = Imk_entropy.Prng.create ~seed:(Int64.add seed 7919L)

let fresh_charge ?jitter_seed () =
  let trace = Trace.create (Clock.create ()) in
  let jitter = Option.map jitter_rng jitter_seed in
  (trace, Charge.create ?jitter trace Cost_model.default)

let boot_once ?(jitter = true) ?tap ?mem ?plans ~seed ~cache vm =
  let trace, ch = fresh_charge ?jitter_seed:(if jitter then Some seed else None) () in
  let result =
    Imk_monitor.Vmm.boot ?mem ?plans ch cache
      { vm with Imk_monitor.Vm_config.seed }
  in
  (match tap with Some f -> f trace | None -> ());
  (trace, result)

let warm_seed i = Int64.of_int (1000 + i)
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

let boot_many ?(warmups = 5) ?(cold = false) ?(jobs = 1) ?tap ?arena ?plans
    ~runs ~cache vm =
  (* one full boot: its phase breakdown (as floats, the exact samples
     the sequential path has always recorded) and total; with an arena
     the bracketed borrow hands the guest memory back even when the boot
     raises *)
  let boot ~cache ~seed =
    if cold then Imk_storage.Page_cache.drop_caches cache;
    let once ?mem () = fst (boot_once ?tap ?mem ?plans ~seed ~cache vm) in
    record_trace
      (match arena with
      | None -> once ()
      | Some a ->
          Imk_memory.Arena.with_buffer a
            ~size:vm.Imk_monitor.Vm_config.mem_bytes (fun mem -> once ~mem ()))
  in
  (* warmups then runs, one task each; the first boot primes the cache *)
  let recorded =
    Campaign.run ~jobs ~prime:1 ~cache ~tasks:(warmups + runs) (fun ~cache t ->
        boot ~cache
          ~seed:(if t < warmups then warm_seed (t + 1) else run_seed (t - warmups + 1)))
  in
  summarize_recorded (Array.sub recorded warmups runs)

(* --- contended boots on the shared event timeline (DESIGN.md §10) --- *)

type contended_stats = {
  per_boot : phase_stats;
  makespan : Imk_util.Stats.summary;
}

let boot_contended ?(warmups = 5) ?tap ?plans ~arena ~capacities ~n ~runs ~cache
    vm =
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
          let trace = Trace.create (Imk_vclock.Sched.timeline_clock tl) in
          let seed = contend_seed ~run:r ~slot:s in
          let ch =
            Charge.create ~jitter:(jitter_rng seed) ~sched:tl trace
              Cost_model.default
          in
          let vm = { vm with Imk_monitor.Vm_config.seed } in
          Imk_vclock.Sched.spawn sched tl (fun () ->
              Imk_memory.Arena.with_buffer arena
                ~size:vm.Imk_monitor.Vm_config.mem_bytes (fun mem ->
                  ignore (Imk_monitor.Vmm.boot ~mem ?plans ch cache vm)));
          trace)
    in
    Imk_vclock.Sched.run sched;
    Option.iter (fun f -> Array.iter f traces) tap;
    (Array.map record_trace traces, float_of_int (Imk_vclock.Sched.now sched))
  in
  (* warmups prime the shared cache; each run then boots against a
     private clone. One domain: a run holds [n] guests live at once *)
  let per_run =
    Campaign.run ~jobs:1 ~prime:warmups ~cache ~tasks:(warmups + runs)
      (fun ~cache t ->
        if t < warmups then begin
          ignore (boot_once ?tap ?plans ~seed:(warm_seed (t + 1)) ~cache vm);
          ([||], 0.)
        end
        else one_run ~cache (t - warmups + 1))
  in
  let per_run = Array.to_list (Array.sub per_run warmups runs) in
  {
    per_boot = summarize_recorded (Array.concat (List.map fst per_run));
    makespan = summarize (List.map snd per_run);
  }

let spans_by_label trace =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let label =
        if String.length s.label > 0 && s.label.[0] = '+' then
          String.sub s.label 1 (String.length s.label - 1)
        else s.label
      in
      let prev = Option.value ~default:0 (Hashtbl.find_opt acc label) in
      Hashtbl.replace acc label (prev + (s.stop_ns - s.start_ns)))
    (Trace.spans trace);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The five workloads of the host-time benchmark (perf/README.md).

   Each [setup] builds a private workspace and returns an [instance]:
   [run_op i] is one timed call into the public entry points, checked;
   [trace_op i] is the same op for the traced run — the real call (span
   "op"), a replay that calls the layers' public functions one by one
   with the same arguments (span "replay", one child span per call) and
   any probes, and a fidelity check that the replay reproduced the real
   call. Every seed derives from the run seed and the op index. *)

open Imk_kernel
open Imk_monitor
module Ws = Imk_harness.Workspace
module Runner = Imk_harness.Boot_runner
module Sup = Imk_harness.Boot_supervisor
module Mem = Imk_memory.Guest_mem
module Arena = Imk_memory.Arena
module Addr = Imk_memory.Addr
module Cache = Imk_storage.Page_cache
module Params = Imk_guest.Boot_params
module Loader = Imk_bootstrap.Loader

exception Diverged of string
(** A traced replay did not reproduce the real call. *)

type op_out = {
  units : int;  (** boots, restores or simulated requests this call ran *)
  virt : float list;  (** virtual-time samples, ns *)
  fingerprint : int list;  (** virtual totals and layout, for virt_digest *)
  failed : int;  (** correctness checks that failed *)
}

type instance = {
  run_op : int -> op_out;
  trace_op : int -> (string * float) list;
      (** exact per-op counters of the traced run *)
  trace_summary : unit -> (string * float) list;
      (** counters over all the ops since set-up (ratios) *)
  derived : (string -> float) -> (string * float) list;
      (** metrics computed from the per-op mean of each span name *)
  virt_quantiles : op_out list -> float * float;  (** p50, p90 in ns *)
}

type size = {
  functions : int option;  (** kernel function-count override *)
  guest_mib : int -> int;  (** guest size for a workload's nominal MiB *)
  requests : int;  (** per fleet cell *)
  contend_n : int;  (** guests booted together per contended op *)
}

let full = { functions = None; guest_mib = Fun.id; requests = 250_000; contend_n = 12 }

(* 32 MiB is the smallest guest the 400-function kernels boot in; four
   contended guests keep the smoke test's heap under half a GiB *)
let quick =
  {
    functions = Some 400;
    guest_mib = (fun m -> max 32 (m / 4));
    requests = 5_000;
    contend_n = 4;
  }

let mib size n = size.guest_mib n * 1024 * 1024
let span = Span.with_span

(* splitmix64 over (run seed, index): independent streams per op *)
let op_seed ~seed i =
  let open Int64 in
  let z = add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int i) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logand (logxor z (shift_right_logical z 31)) 0x3FFF_FFFF_FFFFL

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let pctl xs p = Imk_util.Stats.percentile (sorted xs) p

(* boots: every sample pooled *)
let pooled outs =
  let xs = List.concat_map (fun o -> o.virt) outs in
  (pctl xs 50., pctl xs 90.)

let fail_unless what ok = if not ok then raise (Diverged what)

(* --- what a fidelity check compares: layout, verify stats, kernel bytes --- *)

type capture = {
  layout : int * int * int;  (** phys_load, virt_base, entry_va *)
  stats : Imk_guest.Runtime.verify_stats;
  crc : int;  (** CRC-32 of the placed kernel *)
}

let capture ~kernel_span mem (p : Params.t) stats =
  {
    layout = (p.Params.phys_load, p.Params.virt_base, p.Params.entry_va);
    stats;
    crc = Mem.crc32_range mem ~pa:p.Params.phys_load ~len:kernel_span;
  }

let same_capture what (a : capture) (b : capture) =
  fail_unless (what ^ ": boot params") (a.layout = b.layout);
  fail_unless (what ^ ": verify stats") (a.stats = b.stats);
  fail_unless (what ^ ": placed-kernel CRC") (a.crc = b.crc)

let dirty_bytes mem =
  Mem.fold_dirty_ranges mem ~init:0 ~f:(fun acc ~lo ~hi -> acc + hi - lo)

(* --- set-up helpers --- *)

(* time spent building kernels and linking bzImages, for kernel.build_s *)
let build_ns = ref 0

let timed_build f =
  let t0 = Span.now_ns () in
  let r = f () in
  build_ns := !build_ns + (Span.now_ns () - t0);
  r

let workspace size = Ws.create ?functions_override:size.functions ()
let plans_of ws = Option.get (Ws.plans ws)

let kernel_span ws preset variant =
  Imk_randomize.Loadelf.image_memsz (Ws.built ws preset variant).Image.elf

let fns ws preset variant = (Ws.config ws preset variant).Config.functions

let linear_charge () =
  let trace = Imk_vclock.Trace.create (Imk_vclock.Clock.create ()) in
  Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default

(* Vmm's setup_boot_info for a guest without initrd *)
let write_boot_info mem (vm : Vm_config.t) =
  Imk_guest.Boot_info.write mem
    {
      Imk_guest.Boot_info.proto =
        (match vm.Vm_config.protocol with
        | Vm_config.Linux64 -> Imk_guest.Boot_info.Proto_linux64
        | Vm_config.Pvh -> Imk_guest.Boot_info.Proto_pvh);
      cmdline = vm.Vm_config.boot_args;
      e820 = Imk_guest.Boot_info.e820_of_mem ~mem_bytes:(Mem.size mem);
      initrd = None;
    }

let read cache path =
  span "storage.read" (fun () -> fst (Cache.read cache path))

(* --- the boot replays, in Vmm.boot's order --- *)

type mem_source = From_arena of Arena.t | Fresh

let acquire source size =
  match source with
  | From_arena a -> span "memory.borrow" (fun () -> Arena.borrow a ~size)
  | Fresh -> span "memory.create" (fun () -> Mem.create ~size)

let give_back source mem =
  match source with
  | From_arena a -> span "memory.release" (fun () -> Arena.release a mem)
  | Fresh -> ()

(* counters a boot replay reports alongside its capture *)
type boot_trace = {
  cap : capture;
  read_bytes : int;
  dirty : int;
  sites : int;
  sections : int;
  parses : int;  (** ELF parses that actually ran (cache misses) *)
}

(* direct boot with in-monitor FGKASLR and deferred kallsyms *)
let replay_direct ~plans ~cache ~source ~kernel_span (vm : Vm_config.t) =
  let open Imk_randomize in
  let kcfg = vm.Vm_config.kernel_config in
  let mem = acquire source vm.Vm_config.mem_bytes in
  let kernel = read cache vm.Vm_config.kernel_path in
  span "guest.boot_info" (fun () -> write_boot_info mem vm);
  let builds0 = snd (Plan_cache.stats plans) in
  let bplan =
    span "plan_cache.lookup" (fun () ->
        Plan_cache.elf_plan plans ~path:vm.Vm_config.kernel_path kernel)
  in
  let relocs_path = Option.get vm.Vm_config.relocs_path in
  let relocs_bytes = read cache relocs_path in
  let relocs =
    span "plan_cache.lookup" (fun () ->
        Plan_cache.relocs plans ~path:relocs_path relocs_bytes)
  in
  let parses = snd (Plan_cache.stats plans) - builds0 in
  let elf = bplan.Plan_cache.elf in
  let rng =
    Imk_entropy.Pool.prng
      (Imk_entropy.Pool.create Imk_entropy.Pool.Host_pool ~seed:vm.Vm_config.seed)
  in
  let image_memsz = bplan.Plan_cache.image_memsz in
  let phys_load, delta, plan =
    span "randomize.shuffle" (fun () ->
        let phys =
          Kaslr.choose_physical rng ~image_memsz ~mem_bytes:(Mem.size mem)
        in
        let virt = Kaslr.choose_virtual rng ~image_memsz in
        ( phys,
          virt - Addr.link_base,
          Fgkaslr.make_plan rng ~sections:bplan.Plan_cache.fn_sections
            ~text_base:Addr.link_base ))
  in
  span "randomize.place" (fun () ->
      Loadelf.place_list mem bplan.Plan_cache.alloc ~phys_load ~plan:(Some plan));
  let displace = Fgkaslr.displace plan in
  span "randomize.apply" (fun () ->
      Kaslr.apply ~mem ~relocs
        ~site_pa:(fun va -> displace va - Addr.link_base + phys_load)
        ~new_va_of:(fun va -> Kaslr.delta_new_va ~delta (displace va)));
  span "randomize.fixup" (fun () ->
      let extab = Option.get (Imk_elf.Types.section_by_name elf ".extab") in
      Fgkaslr.fixup_extab mem
        ~pa:(extab.Imk_elf.Types.addr - Addr.link_base + phys_load)
        ~extab_va:extab.Imk_elf.Types.addr plan;
      Mem.write_bytes mem ~pa:Params.default_setup_data_pa
        (Params.setup_data_encode (Fgkaslr.displacement_pairs plan)));
  let params =
    {
      Params.phys_load;
      virt_base = Addr.link_base + delta;
      entry_va = displace elf.Imk_elf.Types.entry + delta;
      mem_bytes = Mem.size mem;
      kernel = Plan_cache.kernel_info (Some plans) bplan kcfg;
      kallsyms_fixed = false;
      orc_fixed = false;
      setup_data_pa = Some Params.default_setup_data_pa;
    }
  in
  let stats =
    span "guest.verify" (fun () ->
        Imk_guest.Linux_boot.run (linear_charge ()) kcfg mem params)
  in
  let cap, dirty =
    span "check.capture" (fun () ->
        (capture ~kernel_span mem params stats, dirty_bytes mem))
  in
  give_back source mem;
  {
    cap;
    read_bytes = Bytes.length kernel + Bytes.length relocs_bytes;
    dirty;
    sites = Imk_elf.Relocation.entry_count relocs;
    sections = plan.Fgkaslr.count;
    parses;
  }

let loader_policy (vm : Vm_config.t) =
  let base =
    match vm.Vm_config.loader with
    | Vm_config.Loader_default -> Loader.default_policy
    | Vm_config.Loader_stripped -> Loader.stripped_policy
  in
  {
    base with
    Loader.write_setup_data = vm.Vm_config.kallsyms = Vm_config.Kallsyms_deferred;
    kallsyms_fixup =
      base.Loader.kallsyms_fixup && vm.Vm_config.kallsyms = Vm_config.Kallsyms_eager;
  }

let loader_rando = function
  | Vm_config.Rando_off -> Loader.Loader_off
  | Vm_config.Rando_kaslr -> Loader.Loader_kaslr
  | Vm_config.Rando_fgkaslr -> Loader.Loader_fgkaslr

(* the loader's image-derivation hooks, each call timed; a parse counts
   only when the hook returns another ELF than the plan's memo held *)
let timed_hooks (h : Loader.hooks) (bplan : Plan_cache.bz_plan) ~parses =
  {
    Loader.parse_vmlinux =
      (fun b ->
        span "elf.parse" (fun () ->
            let memo = bplan.Plan_cache.l_elf in
            let e = h.Loader.parse_vmlinux b in
            (match memo with Some (_, e0) when e0 == e -> () | _ -> incr parses);
            e));
    decode_relocs = (fun b -> span "elf.parse" (fun () -> h.Loader.decode_relocs b));
    fn_sections = (fun e -> span "elf.parse" (fun () -> h.Loader.fn_sections e));
    kernel_info = (fun e c -> span "elf.parse" (fun () -> h.Loader.kernel_info e c));
  }

(* bzImage boot: the monitor stages the image, the guest's loader runs *)
let replay_bz ~plans ~cache ~source ~kernel_span (vm : Vm_config.t) =
  let kcfg = vm.Vm_config.kernel_config in
  let mem = acquire source vm.Vm_config.mem_bytes in
  let kernel = read cache vm.Vm_config.kernel_path in
  span "guest.boot_info" (fun () -> write_boot_info mem vm);
  let bplan =
    span "plan_cache.lookup" (fun () ->
        Plan_cache.bz_plan plans ~path:vm.Vm_config.kernel_path kernel)
  in
  span "memory.stage" (fun () -> Mem.write_bytes mem ~pa:Vmm.staging_pa kernel);
  let parses = ref 0 in
  let hooks =
    timed_hooks (Plan_cache.loader_hooks (Some plans) bplan) bplan ~parses
  in
  let ch = linear_charge () in
  let params =
    span "bootstrap.loader" (fun () ->
        Loader.run ~hooks ch mem ~bzimage:bplan.Plan_cache.bz
          ~staging_pa:Vmm.staging_pa ~config:kcfg
          ~rando:(loader_rando vm.Vm_config.rando)
          ~policy:(loader_policy vm)
          ~rng:(Imk_entropy.Prng.create ~seed:(Int64.add vm.Vm_config.seed 101L)))
  in
  let stats =
    span "guest.verify" (fun () -> Imk_guest.Linux_boot.run ch kcfg mem params)
  in
  let cap, dirty =
    span "check.capture" (fun () ->
        (capture ~kernel_span mem params stats, dirty_bytes mem))
  in
  give_back source mem;
  let sites =
    match bplan.Plan_cache.l_relocs with
    | Some (_, t) -> Imk_elf.Relocation.entry_count t
    | None -> 0
  in
  ( bplan.Plan_cache.bz,
    { cap; read_bytes = Bytes.length kernel; dirty; sites; sections = 0; parses = !parses } )

(* the op's own image, decompressed outside the loader so its share of
   bootstrap.loader can be told apart *)
let unpack_probe (bz : Bzimage.t) scratch =
  span "compress.unpack" (fun () ->
      Bzimage.unpack_payload_into bz ~dst:scratch ~dst_off:0)

(* even ops run the real call first and odd ops the replay first, so
   neither side always inherits the other's garbage *)
let real_and_replay i real replay =
  if i land 1 = 0 then
    let a = span "op" real in
    (a, span "replay" replay)
  else
    let b = span "replay" replay in
    (span "op" real, b)

let boot_counters (t : boot_trace) =
  [
    ("storage.read_bytes", float_of_int t.read_bytes);
    ("elf.calls_per_op", float_of_int t.parses);
    ("randomize.sites", float_of_int t.sites);
    ("randomize.sections", float_of_int t.sections);
    ("guest.functions", float_of_int t.cap.stats.Imk_guest.Runtime.functions_visited);
    ("memory.dirty_bytes", float_of_int t.dirty);
  ]

(* plan-cache and arena hit ratios over the ops since set-up *)
let ratio_tracker ~plans ~arena =
  let h0, b0 = Plan_cache.stats plans in
  let ah0, am0 = match arena with Some a -> Arena.stats a | None -> (0, 0) in
  fun () ->
    let h, b = Plan_cache.stats plans in
    let hit = float_of_int (h - h0) and all = float_of_int (h - h0 + b - b0) in
    ( "plan_cache.hit_ratio", if all > 0. then hit /. all else 0. )
    ::
    (match arena with
    | None -> []
    | Some a ->
        let ah, am = Arena.stats a in
        let all = float_of_int (ah - ah0 + am - am0) in
        [ ("memory.arena_hit_ratio", if all > 0. then float_of_int (ah - ah0) /. all else 0.) ])

let per_op_bootstrap get =
  [ ("bootstrap.self_us", get "bootstrap.loader_us" -. get "elf.parse_us" -. get "compress.unpack_us") ]

(* --- solo boot workloads: Arena.with_buffer around Boot_runner.boot_once --- *)

let warmups = 5

(* [replay ws] returns the workload's boot replay; it hands back its
   counters and a probe to run once the replay's span has closed *)
let solo_boot ~size ~seed ~preset ~variant ~make_vm ~replay =
  let ws = workspace size in
  let make_vm = timed_build (fun () -> make_vm ws) in
  let replay = replay ws in
  let kernel_span = kernel_span ws preset variant in
  let expect = fns ws preset variant in
  let plans = plans_of ws and cache = Ws.cache ws and arena = Ws.arena ws in
  let run_op i =
    let seed = op_seed ~seed i in
    let vm = make_vm ~seed in
    Arena.with_buffer arena ~size:vm.Vm_config.mem_bytes (fun mem ->
        let trace, r = Runner.boot_once ~mem ~plans ~seed ~cache vm in
        let total = Imk_vclock.Trace.total trace in
        let p = r.Vmm.params in
        {
          units = 1;
          virt = [ float_of_int total ];
          fingerprint = [ total; p.Params.virt_base; p.Params.phys_load ];
          failed = (if r.Vmm.stats.Imk_guest.Runtime.functions_visited = expect then 0 else 1);
        })
  in
  for k = 1 to warmups do
    ignore (run_op (-k))
  done;
  let ratios = ratio_tracker ~plans ~arena:(Some arena) in
  let trace_op i =
    let seed = op_seed ~seed i in
    let vm = make_vm ~seed in
    let real, (t, probe) =
      real_and_replay i
        (fun () ->
          Arena.with_buffer arena ~size:vm.Vm_config.mem_bytes (fun mem ->
              let _, r = Runner.boot_once ~mem ~plans ~seed ~cache vm in
              span "check.capture" (fun () ->
                  capture ~kernel_span mem r.Vmm.params r.Vmm.stats)))
        (fun () -> replay ~plans ~cache ~source:(From_arena arena) ~kernel_span vm)
    in
    same_capture "replay" real t.cap;
    boot_counters t @ probe ()
  in
  {
    run_op;
    trace_op;
    trace_summary = ratios;
    derived =
      (fun get ->
        per_op_bootstrap get
        @ [
            ( "randomize.ns_per_site",
              let sites = get "randomize.sites" in
              if sites > 0. then get "randomize.apply_us" *. 1e3 /. sites else 0. );
            ( "compress.ns_per_byte",
              let b = get "compress.out_bytes" in
              if b > 0. then get "compress.unpack_us" *. 1e3 /. b else 0. );
          ]);
    virt_quantiles = pooled;
  }

let direct_fgkaslr size ~seed =
  let preset = Config.Ubuntu and variant = Config.Fgkaslr in
  solo_boot ~size ~seed ~preset ~variant
    ~make_vm:(fun ws ->
      let kernel_path = Ws.vmlinux_path ws preset variant in
      let relocs_path = Some (Ws.relocs_path ws preset variant) in
      let kernel_config = Ws.config ws preset variant in
      fun ~seed ->
        Vm_config.make ~rando:Vm_config.Rando_fgkaslr
          ~kallsyms:Vm_config.Kallsyms_deferred ~mem_bytes:(mib size 256)
          ~relocs_path ~kernel_path ~kernel_config ~seed ())
    ~replay:(fun _ ~plans ~cache ~source ~kernel_span vm ->
      (replay_direct ~plans ~cache ~source ~kernel_span vm, fun () -> []))

let bz_scratch ws path =
  let bz = Bzimage.decode (Imk_storage.Disk.find (Ws.disk ws) path) in
  Bytes.make (bz.Bzimage.vmlinux_len + bz.Bzimage.relocs_len) '\000'

let bzimage_gzip size ~seed =
  let preset = Config.Aws and variant = Config.Kaslr in
  let path ws = Ws.bzimage_path ws preset variant ~codec:"gzip" ~bz:Bzimage.Standard in
  solo_boot ~size ~seed ~preset ~variant
    ~make_vm:(fun ws ->
      let kernel_path = path ws in
      let kernel_config = Ws.config ws preset variant in
      fun ~seed ->
        Vm_config.make ~flavor:Vm_config.In_monitor_fgkaslr
          ~rando:Vm_config.Rando_kaslr ~loader:Vm_config.Loader_default
          ~mem_bytes:(mib size 256) ~kernel_path ~kernel_config ~seed ())
    ~replay:(fun ws ->
      let scratch = bz_scratch ws (path ws) in
      fun ~plans ~cache ~source ~kernel_span vm ->
        let bz, t = replay_bz ~plans ~cache ~source ~kernel_span vm in
        ( t,
          fun () ->
            unpack_probe bz scratch;
            [ ("compress.out_bytes", float_of_int (Bytes.length scratch)) ] ))

(* --- zygote-restore: supervised snapshot restores --- *)

let working_set_pages = 2048

let zygote_restore size ~seed =
  let preset = Config.Aws and variant = Config.Kaslr in
  let ws = workspace size in
  let k, r =
    timed_build (fun () ->
        (Ws.vmlinux_path ws preset variant, Ws.relocs_path ws preset variant))
  in
  let kcfg = Ws.config ws preset variant in
  let kernel_span = kernel_span ws preset variant in
  let expect = fns ws preset variant in
  let plans = Ws.plans ws in
  let make ~seed =
    Vm_config.make ~rando:Vm_config.Rando_kaslr ~mem_bytes:(mib size 256)
      ~relocs_path:(Some r) ~kernel_path:k ~kernel_config:kcfg ~seed ()
  in
  let base = Vmm.boot ?plans (linear_charge ()) (Ws.cache ws) (make ~seed:(op_seed ~seed (-1))) in
  let base_cap = capture ~kernel_span base.Vmm.mem base.Vmm.params base.Vmm.stats in
  let blob = Snapshot.serialize (Snapshot.capture base) in
  let snap_path = "zygote.snapshot" in
  let disk = Imk_storage.Disk.create () in
  let src = Ws.disk ws in
  List.iter
    (fun (name, b) -> Imk_storage.Disk.add disk ~name b)
    [ (k, Imk_storage.Disk.find src k); (r, Imk_storage.Disk.find src r); (snap_path, blob) ];
  let cache = Cache.create disk in
  List.iter (Cache.warm cache) [ k; r; snap_path ];
  let ctx = Sup.plain_ctx ?plans cache in
  let phys_load, virt_base, _ = base_cap.layout in
  let supervise i =
    let seed = op_seed ~seed i in
    Sup.supervise_snapshot ~seed ~ctx ~snapshot_path:snap_path ~working_set_pages (make ~seed)
  in
  let run_op i =
    let rep = supervise i in
    let ok =
      match rep.Sup.outcome with
      | Ok stats ->
          stats.Imk_guest.Runtime.functions_visited = expect && rep.Sup.events = []
      | Error _ -> false
    in
    {
      units = 1;
      virt = [ float_of_int rep.Sup.total_ns ];
      fingerprint = [ rep.Sup.total_ns; virt_base; phys_load ];
      failed = (if ok then 0 else 1);
    }
  in
  let trace_op i =
    let vm = make ~seed:(op_seed ~seed i) in
    let rep, restored =
      real_and_replay i
        (fun () -> supervise i)
        (fun () ->
          let blob = read cache snap_path in
          let snap = span "snapshot.load" (fun () -> Snapshot.load ~config:vm blob) in
          span "snapshot.restore" (fun () ->
              Snapshot.restore (linear_charge ()) snap ~working_set_pages))
    in
    let cap =
      capture ~kernel_span restored.Vmm.mem restored.Vmm.params restored.Vmm.stats
    in
    same_capture "restore vs captured boot" base_cap cap;
    fail_unless "restore vs supervise_snapshot: verify stats"
      (rep.Sup.outcome = Ok cap.stats);
    ignore (span "memory.create" (fun () -> Mem.create ~size:vm.Vm_config.mem_bytes));
    ignore (span "guest.verify" (fun () -> Snapshot.verify_restored restored));
    [
      ("storage.read_bytes", float_of_int (Bytes.length blob));
      ("snapshot.frame_bytes", float_of_int (Bytes.length blob));
      ("guest.functions", float_of_int cap.stats.Imk_guest.Runtime.functions_visited);
    ]
  in
  {
    run_op;
    trace_op;
    trace_summary = (fun () -> []);
    derived =
      (fun get ->
        [
          ( "supervisor.self_us",
            get "op_us" -. get "storage.read_us" -. get "snapshot.load_us"
            -. get "snapshot.restore_us" );
        ]);
    virt_quantiles = pooled;
  }

(* --- contended-lz4: twelve boots on one Sched timeline --- *)

let contended_lz4 size ~seed =
  let preset = Config.Lupine and variant = Config.Kaslr in
  let ws = workspace size in
  let path =
    timed_build (fun () ->
        Ws.bzimage_path ws preset variant ~codec:"lz4" ~bz:Bzimage.Standard)
  in
  let kcfg = Ws.config ws preset variant in
  let kernel_span = kernel_span ws preset variant in
  let expect = fns ws preset variant in
  let plans = plans_of ws and cache = Ws.cache ws in
  (* the fig9 contention row's guests, at 64 MiB so twelve fit in memory *)
  let make ~seed =
    Vm_config.make ~flavor:Vm_config.In_monitor_fgkaslr ~rando:Vm_config.Rando_kaslr
      ~loader:Vm_config.Loader_stripped ~mem_bytes:(mib size 64) ~kernel_path:path
      ~kernel_config:kcfg ~seed ()
  in
  for k = 1 to warmups do
    let seed = op_seed ~seed (-k) in
    ignore (Runner.boot_once ~plans ~seed ~cache (make ~seed))
  done;
  let contend_n = size.contend_n in
  let seeds i = Array.init contend_n (fun s -> op_seed ~seed ((i * 64) + s)) in
  (* Boot_runner.boot_contended's per-run body (fresh scheduler at
     capacities (1,1), private cache clone), with seeds drawn from the
     run seed: boot_contended pins them to contend_seed *)
  let contended i =
    let cache = Cache.clone cache in
    let sched = Imk_vclock.Sched.create ~disk_capacity:1 ~decompress_slots:1 () in
    let boots =
      Array.map
        (fun seed ->
          let tl = Imk_vclock.Sched.timeline sched in
          let trace = Imk_vclock.Trace.create (Imk_vclock.Sched.timeline_clock tl) in
          let jitter = Imk_entropy.Prng.create ~seed:(Int64.add seed 7919L) in
          let ch =
            Imk_vclock.Charge.create ~jitter ~sched:tl trace Imk_vclock.Cost_model.default
          in
          let result = ref None in
          Imk_vclock.Sched.spawn sched tl (fun () ->
              result := Some (Vmm.boot ~plans ch cache (make ~seed)));
          (trace, result))
        (seeds i)
    in
    Imk_vclock.Sched.run sched;
    ( Array.map (fun (trace, r) -> (Imk_vclock.Trace.total trace, Option.get !r)) boots,
      Imk_vclock.Sched.now sched )
  in
  let run_op i =
    let boots, makespan = contended i in
    let failed = ref 0 and fp = ref [ makespan ] in
    Array.iter
      (fun (total, r) ->
        if r.Vmm.stats.Imk_guest.Runtime.functions_visited <> expect then incr failed;
        fp := total :: r.Vmm.params.Params.virt_base :: r.Vmm.params.Params.phys_load :: !fp)
      boots;
    {
      units = contend_n;
      virt = Array.to_list (Array.map (fun (t, _) -> float_of_int t) boots);
      fingerprint = List.rev !fp;
      failed = !failed;
    }
  in
  let scratch = bz_scratch ws path in
  let slowdown = ref 0. and makespans = ref [] in
  let ratios = ratio_tracker ~plans ~arena:None in
  let trace_op i =
    let seeds = seeds i in
    let (real, makespan), traces =
      real_and_replay i
        (fun () ->
          let boots, makespan = contended i in
          ( span "check.capture" (fun () ->
                Array.map
                  (fun (total, r) ->
                    (total, capture ~kernel_span r.Vmm.mem r.Vmm.params r.Vmm.stats))
                  boots),
            makespan ))
        (fun () ->
          Array.map
            (fun seed -> replay_bz ~plans ~cache ~source:Fresh ~kernel_span (make ~seed))
            seeds)
    in
    makespans := float_of_int makespan :: !makespans;
    Array.iteri (fun s (_, t) -> same_capture "solo replay vs contended boot" (snd real.(s)) t.cap)
      traces;
    Array.iter (fun (bz, _) -> unpack_probe bz scratch) traces;
    (* op 0's guests booted solo on the linear clock: the contention
       baseline for sched.slowdown *)
    if i = 0 then begin
      let solo seed =
        let trace, _ = Runner.boot_once ~plans ~seed ~cache:(Cache.clone cache) (make ~seed) in
        float_of_int (Imk_vclock.Trace.total trace)
      in
      let p50 xs = pctl (Array.to_list xs) 50. in
      slowdown := p50 (Array.map (fun (t, _) -> float_of_int t) real) /. p50 (Array.map solo seeds)
    end;
    let sum f = Array.fold_left (fun acc (_, t) -> acc + f t) 0 traces in
    [
      ("storage.read_bytes", float_of_int (sum (fun t -> t.read_bytes)));
      ("elf.calls_per_op", float_of_int (sum (fun t -> t.parses)));
      ("randomize.sites", float_of_int (sum (fun t -> t.sites)));
      ("guest.functions", float_of_int (sum (fun t -> t.cap.stats.Imk_guest.Runtime.functions_visited)));
      ("memory.dirty_bytes", float_of_int (sum (fun t -> t.dirty)));
      ("compress.out_bytes", float_of_int (contend_n * Bytes.length scratch));
    ]
  in
  {
    run_op;
    trace_op;
    trace_summary =
      (fun () ->
        ratios ()
        @ [
            ("sched.slowdown", !slowdown);
            ("sched.makespan_ms", pctl !makespans 50. /. 1e6);
          ]);
    derived =
      (fun get ->
        per_op_bootstrap get
        @ [
            ("sched.overhead_us", get "op_us" -. get "replay_us");
            ( "compress.ns_per_byte",
              get "compress.unpack_us" *. 1e3 /. get "compress.out_bytes" );
          ]);
    virt_quantiles = pooled;
  }

(* --- fleet-storm: the serving simulator on calibrated costs --- *)

let fleet_storm size ~seed =
  let module I = Imk_fault.Inject in
  let module W = Imk_fault.Weather in
  let module A = Imk_fleet.Arrival in
  let module Sim = Imk_fleet.Sim in
  let preset = Config.Aws and variant = Config.Kaslr in
  let ws = workspace size in
  let k, r =
    timed_build (fun () ->
        (Ws.vmlinux_path ws preset variant, Ws.relocs_path ws preset variant))
  in
  let kcfg = Ws.config ws preset variant in
  let plans = Ws.plans ws and arena = Ws.arena ws in
  let make ~seed =
    Vm_config.make ~rando:Vm_config.Rando_kaslr ~mem_bytes:(mib size 64)
      ~relocs_path:(Some r) ~kernel_path:k ~kernel_config:kcfg ~seed ()
  in
  (* calibration as Experiments.fleet does it: supervised cold boots,
     snapshot restores and fault-armed boots, each on a private disk *)
  let cal_runs = 8 in
  let seams = [ I.Transient_init 1; I.Truncate_relocs; I.Flip_relocs_magic ] in
  let files = List.map (fun n -> (n, Imk_storage.Disk.find (Ws.disk ws) n)) [ k; r ] in
  let private_cache extra =
    let disk = Imk_storage.Disk.create () in
    List.iter (fun (n, b) -> Imk_storage.Disk.add disk ~name:n b) (files @ extra);
    let cache = Cache.create disk in
    List.iter (fun (n, _) -> Cache.warm cache n) (files @ extra);
    (disk, cache)
  in
  let cal_seed i = op_seed ~seed (-(i + 1)) in
  let total what (rep : Sup.report) =
    match rep.Sup.outcome with
    | Ok _ -> rep.Sup.total_ns
    | Error f -> failwith (what ^ " calibration failed: " ^ Imk_fault.Failure.describe f)
  in
  let cold_ns =
    Array.init cal_runs (fun i ->
        let seed = cal_seed i in
        let _, cache = private_cache [] in
        let ctx = Sup.plain_ctx ?plans cache in
        total "cold" (Sup.supervise ~arena ~seed ~ctx (make ~seed)))
  in
  let snap_path = "fleet.snapshot" in
  let blob =
    Snapshot.serialize
      (Snapshot.capture (Vmm.boot ?plans (linear_charge ()) (Ws.cache ws) (make ~seed:(cal_seed cal_runs))))
  in
  let warm_ns =
    Array.init cal_runs (fun i ->
        let seed = cal_seed i in
        let _, cache = private_cache [ (snap_path, blob) ] in
        let ctx = Sup.plain_ctx ?plans cache in
        total "warm"
          (Sup.supervise_snapshot ~arena ~seed ~ctx ~snapshot_path:snap_path
             ~working_set_pages (make ~seed)))
  in
  let fault_ns =
    Array.init cal_runs (fun i ->
        let seed = cal_seed i in
        let kind = List.nth seams (i mod List.length seams) in
        let disk, cache = private_cache [] in
        let inject =
          (I.arm kind ~seed:((131 * (i + 1)) + 7) ~disk ~kernel_path:k ~relocs_path:r ()).I.inject
        in
        (Sup.supervise ~arena ~seed ~ctx:{ Sup.cache; inject; plans } (make ~seed)).Sup.total_ns)
  in
  (* Experiments.fleet's constants and bursty model: 85% of server
     capacity at an 80%-warm service mix, bursts at 2.5x *)
  let servers = 4 and pool_capacity = 2 and queue_capacity = 16 in
  let mean a = Imk_util.Stats.mean (List.map float_of_int (Array.to_list a)) in
  let lambda =
    0.85 *. float_of_int servers
    /. (((0.8 *. mean warm_ns) +. (0.2 *. mean cold_ns)) /. 1e9)
  in
  let model =
    A.Bursty
      { base_per_s = lambda *. 0.5; burst_per_s = lambda *. 2.5; burst_len = 64; period = 256 }
  in
  let requests = size.requests in
  let cell_seed i = Int64.to_int (op_seed ~seed i) land 0x3FFF_FFFF in
  let cell i =
    {
      Sim.arrival = model;
      seed = cell_seed i;
      requests;
      servers;
      pool_capacity;
      queue_capacity;
      cold_ns;
      warm_ns;
      fault_ns;
      weather = Some (W.make W.Storm ~seed:(cell_seed i lxor 0x5EED));
      seams;
    }
  in
  let summary (rep : Sim.report) =
    [
      rep.Sim.completed; rep.Sim.dropped; rep.Sim.cold_starts; rep.Sim.warm_starts;
      rep.Sim.fault_starts; rep.Sim.pool_hits; rep.Sim.makespan_ns;
      int_of_float rep.Sim.sojourn.Imk_util.Stats.p50;
      int_of_float rep.Sim.sojourn.Imk_util.Stats.p90;
    ]
  in
  let run_op i =
    let rep = Sim.run (cell i) in
    let ok =
      rep.Sim.completed + rep.Sim.dropped = requests
      && rep.Sim.cold_starts + rep.Sim.warm_starts + rep.Sim.fault_starts = rep.Sim.completed
    in
    {
      units = requests;
      virt = [ rep.Sim.sojourn.Imk_util.Stats.p50; rep.Sim.sojourn.Imk_util.Stats.p90 ];
      fingerprint = summary rep;
      failed = (if ok then 0 else 1);
    }
  in
  let trace_op i =
    let c = cell i in
    let real, rep =
      real_and_replay i (fun () -> Sim.run c) (fun () -> span "fleet.sim" (fun () -> Sim.run c))
    in
    fail_unless "fleet cell report" (summary real = summary rep);
    ignore (span "fleet.arrival" (fun () -> A.arrivals model ~seed:c.Sim.seed ~n:requests));
    [
      ("fleet.hit_rate", rep.Sim.hit_rate);
      ("fleet.drop_rate", float_of_int rep.Sim.dropped /. float_of_int requests);
    ]
  in
  {
    run_op;
    trace_op;
    trace_summary = (fun () -> []);
    derived =
      (fun get -> [ ("fleet.ns_per_request", get "fleet.sim_us" *. 1e3 /. float_of_int requests) ]);
    virt_quantiles =
      (fun outs ->
        let nth n = List.map (fun o -> List.nth o.virt n) outs in
        (pctl (nth 0) 50., pctl (nth 1) 50.));
  }

type t = {
  name : string;
  setup : size -> seed:int -> instance;
  cap_ops : int;  (** ops in a --quick run *)
}

let all =
  [
    { name = "direct-fgkaslr"; setup = direct_fgkaslr; cap_ops = 5 };
    { name = "bzimage-gzip"; setup = bzimage_gzip; cap_ops = 5 };
    { name = "zygote-restore"; setup = zygote_restore; cap_ops = 5 };
    { name = "contended-lz4"; setup = contended_lz4; cap_ops = 5 };
    { name = "fleet-storm"; setup = fleet_storm; cap_ops = 2 };
  ]

open Imk_kernel
open Imk_monitor

type verdict = { name : string; pass : bool; detail : string }

type output = {
  id : string;
  title : string;
  table : Imk_util.Table.t;
  notes : string list;
  telemetry : Telemetry.row list;
  verdicts : verdict list;
}

let failures o = List.filter (fun v -> not v.pass) o.verdicts
let verdict name pass detail = { name; pass; detail }

let presets = Config.all_presets
let pname = Config.preset_name
let msf = Boot_runner.ms
let msv f = Printf.sprintf "%.1f" f
let msn ns = msv (Imk_util.Units.ns_float_to_ms ns)
let pct a b = Imk_util.Stats.pct_change b a (* change of a relative to b *)

(* the phases of one boot_many campaign as raw nanosecond summaries,
   phases that never ran (n = 0) dropped rather than padded with
   fabricated zeros *)
let stats_phases (s : Boot_runner.phase_stats) =
  List.filter
    (fun (_, sum) -> sum.Imk_util.Stats.n > 0)
    [
      ("in-monitor", s.Boot_runner.in_monitor);
      ("bootstrap", s.Boot_runner.bootstrap);
      ("decompression", s.Boot_runner.decompression);
      ("linux-boot", s.Boot_runner.linux_boot);
    ]

(* a boot_many campaign's telemetry row under an explicit label *)
let stats_row label (s : Boot_runner.phase_stats) =
  { Telemetry.label; total = s.Boot_runner.total; phases = stats_phases s }

(* a single measured quantity (already in ns) as a one-sample row *)
let scalar_row label ns =
  { Telemetry.label; total = Imk_util.Stats.summarize [ ns ]; phases = [] }

(* rendered columns of a boot_many summary. The "min"/"max" cells take
   the summary's raw float nanoseconds straight through [ns_float_to_ms]:
   an int_of_float round-trip would truncate toward zero *)
let stat_cells (s : Boot_runner.phase_stats) cols =
  List.concat_map
    (function
      | `In_monitor -> [ msv (msf s.Boot_runner.in_monitor) ]
      | `Bootstrap -> [ msv (msf s.Boot_runner.bootstrap) ]
      | `Decomp -> [ msv (msf s.Boot_runner.decompression) ]
      | `Linux -> [ msv (msf s.Boot_runner.linux_boot) ]
      | `Total -> [ msv (msf s.Boot_runner.total) ]
      | `Min_max ->
          [
            msn s.Boot_runner.total.Imk_util.Stats.min;
            msn s.Boot_runner.total.Imk_util.Stats.max;
          ])
    cols

(* a table and its telemetry, filled together by one primitive: [row]
   adds one table row (key cells, then the rendered cells) and, given a
   nanosecond [total], one telemetry row labelled by the key cells joined
   with "/", so a rendered row and its JSON row can never disagree on the
   key *)
type sheet = { table : Imk_util.Table.t; mutable rows : Telemetry.row list }

let sheet headers = { table = Imk_util.Table.create ~headers; rows = [] }

let row sh ~key ?total ?(phases = []) cells =
  Option.iter
    (fun total ->
      sh.rows <- { Telemetry.label = String.concat "/" key; total; phases } :: sh.rows)
    total;
  Imk_util.Table.add_row sh.table (key @ cells)

(* a boot_many campaign's row: its stat columns, then [extra] *)
let add sh ~key ?(extra = []) cols s =
  row sh ~key ~total:s.Boot_runner.total ~phases:(stats_phases s)
    (stat_cells s cols @ extra)

let report ?(verdicts = []) sh ~id ~title notes =
  { id; title; table = sh.table; notes; telemetry = List.rev sh.rows; verdicts }

(* ---------- the workspace's run configuration and boot state ---------- *)

let jobs ws = (Workspace.run_config ws).Workspace.jobs
let tap ws = (Workspace.run_config ws).Workspace.trace

let boot_once ?jitter ?mem ws ~seed vm =
  Boot_runner.boot_once ?jitter ?tap:(tap ws) ?mem ?plans:(Workspace.plans ws)
    ~seed ~cache:(Workspace.cache ws) vm

(* VM templates (boots overwrite the seed); building one registers its
   images on the workspace disk *)
let direct_vm ws preset variant ~rando ?(kallsyms = Vm_config.Kallsyms_eager)
    ?(profile = Profiles.firecracker) ?(mem = 256 * 1024 * 1024) () =
  let need_relocs = rando <> Vm_config.Rando_off in
  Vm_config.make ~rando ~profile ~mem_bytes:mem ~kallsyms
    ~relocs_path:
      (if need_relocs then Some (Workspace.relocs_path ws preset variant)
       else None)
    ~kernel_path:(Workspace.vmlinux_path ws preset variant)
    ~kernel_config:(Workspace.config ws preset variant)
    ()

let bz_vm ws preset variant ~codec ~bz ~rando ?(loader = Vm_config.Loader_stripped)
    ?(profile = Profiles.firecracker) ?(mem = 256 * 1024 * 1024) () =
  let path = Workspace.bzimage_path ws preset variant ~codec ~bz in
  Vm_config.make ~flavor:Vm_config.In_monitor_fgkaslr ~rando ~profile
    ~mem_bytes:mem ~loader ~kernel_path:path
    ~kernel_config:(Workspace.config ws preset variant)
    ()

let variant_of_rando = function
  | Vm_config.Rando_off -> Config.Nokaslr
  | Vm_config.Rando_kaslr -> Config.Kaslr
  | Vm_config.Rando_fgkaslr -> Config.Fgkaslr

let rando_name = function
  | Vm_config.Rando_off -> "nokaslr"
  | Vm_config.Rando_kaslr -> "kaslr"
  | Vm_config.Rando_fgkaslr -> "fgkaslr"

let all_randos = [ Vm_config.Rando_off; Vm_config.Rando_kaslr; Vm_config.Rando_fgkaslr ]

let fg_kallsyms rando =
  if rando = Vm_config.Rando_fgkaslr then Vm_config.Kallsyms_deferred
  else Vm_config.Kallsyms_eager

(* ---------- a figure is a list of cells, run by one grid ---------- *)

(* a figure cell: its key cells, the §5.1 cache protocol (warm, or the
   caches dropped before every boot) and the VM template it boots *)
type boot_cell = { key : string list; cold : bool; vm : Vm_config.t }

let boot_cell ?(cold = false) key vm = { key; cold; vm }

(* the §5.1 protocol over a figure's cells, each five warmups and [runs]
   measured boots. The workspace is warmed once, after every template
   (and so every image) exists. Cell 0 boots on the calling domain
   against the shared cache; every later cell boots in order on its own
   clone of it, the cells fanned over the run's jobs — so the trace tap
   sees cell 0's first boot first at any jobs. A cold cell 0 leaves the
   shared cache dropped and later cells clone an empty one; their first
   warmup reads what they need, and a boot's read set does not depend
   on its seed, so their measured boots see the cache a sequential run
   would. Each cell's stats come back under its key, in cell order *)
let grid ?jobs:j ~runs ws cells =
  Workspace.warm_all ws;
  let cells = Array.of_list cells in
  let stats =
    Campaign.run ~jobs:(Option.value j ~default:(jobs ws)) ~prime:1
      ~cache:(Workspace.cache ws) ~tasks:(Array.length cells) (fun ~cache i ->
        Boot_runner.boot_many ~cold:cells.(i).cold ?tap:(tap ws)
          ~arena:(Workspace.arena ws) ?plans:(Workspace.plans ws) ~runs ~cache
          cells.(i).vm)
  in
  Array.to_list (Array.map2 (fun c s -> (c.key, s)) cells stats)

(* the mean total of the grid cell keyed [key], in ms *)
let total_ms stats key = msf (List.assoc key stats).Boot_runner.total

(* one sheet row per grid cell, in cell order *)
let add_all sh cols stats = List.iter (fun (key, s) -> add sh ~key cols s) stats

(* ---------- Table 1 ---------- *)

let table1 ?runs:_ ws =
  let sh =
    sheet [ "kernel"; "vmlinux"; "bzImage(None)"; "bzImage(LZ4)"; "relocs"; "sections" ]
  in
  List.iter
    (fun preset ->
      List.iter
        (fun variant ->
          let b = Workspace.built ws preset variant in
          let bz codec =
            let path =
              Workspace.bzimage_path ws preset variant ~codec
                ~bz:Bzimage.Standard
            in
            Config.modeled_of_actual b.Image.config
              (Imk_storage.Disk.size (Workspace.disk ws) path)
          in
          let bytes = Imk_util.Units.bytes_to_string in
          row sh ~key:[ b.Image.config.Config.name ]
            [
              bytes (Image.modeled_vmlinux_bytes b);
              bytes (bz "none");
              bytes (bz "lz4");
              (if b.Image.config.Config.relocatable then
                 bytes (Image.modeled_reloc_bytes b)
               else "N/A");
              string_of_int (Image.modeled_sections b);
            ])
        Config.all_variants)
    presets;
  report sh ~id:"table1"
    ~title:"Table 1: kernel image sizes (modelled at paper scale)"
    [
      "fgkaslr variants are larger than kaslr variants (function sections)";
      "relocs grow: lupine < aws < ubuntu, and kaslr < fgkaslr";
    ]

(* ---------- Figure 3: compression bakeoff ---------- *)

let fig3 ?(runs = 20) ws =
  let sh =
    sheet [ "codec"; "total ms"; "decompress ms"; "in-monitor ms"; "min"; "max" ]
  in
  let codecs = [ "gzip"; "bzip2"; "lzma"; "xz"; "lzo"; "lz4" ] in
  let stats =
    grid ~runs ws
      (List.map
         (fun codec ->
           boot_cell [ codec ]
             (bz_vm ws Config.Aws Config.Nokaslr ~codec ~bz:Bzimage.Standard
                ~rando:Vm_config.Rando_off ()))
         codecs)
  in
  add_all sh [ `Total; `Decomp; `In_monitor; `Min_max ] stats;
  let best =
    List.fold_left
      (fun (bc, bv) c ->
        let v = total_ms stats [ c ] in
        if v < bv then (c, v) else (bc, bv))
      ("", infinity) codecs
  in
  report sh ~id:"fig3"
    ~title:"Figure 3: compression bakeoff (aws kernel bzImage boots, cached)"
    [ Printf.sprintf "fastest codec: %s (paper: LZ4)" (fst best) ]

(* ---------- Figure 4: cache effects ---------- *)

let fig4 ?(runs = 20) ws =
  let sh =
    sheet
      [ "kernel"; "method"; "cache"; "in-monitor"; "bootstrap"; "decomp"; "linux"; "total ms" ]
  in
  let cache cold = if cold then "cold" else "warm" in
  let methods preset =
    [
      ( "bzImage-lz4",
        bz_vm ws preset Config.Nokaslr ~codec:"lz4" ~bz:Bzimage.Standard
          ~rando:Vm_config.Rando_off () );
      ("direct", direct_vm ws preset Config.Nokaslr ~rando:Vm_config.Rando_off ());
    ]
  in
  let stats =
    grid ~runs ws
      (List.concat_map
         (fun preset ->
           List.concat_map
             (fun cold ->
               List.map
                 (fun (m, vm) -> boot_cell ~cold [ pname preset; m; cache cold ] vm)
                 (methods preset))
             [ true; false ])
         presets)
  in
  add_all sh [ `In_monitor; `Bootstrap; `Decomp; `Linux; `Total ] stats;
  let notes =
    List.map
      (fun preset ->
        let t m cold = total_ms stats [ pname preset; m; cache cold ] in
        Printf.sprintf
          "%s: cold — direct %+.0f%% vs bzImage (paper: direct slower); warm — direct %+.0f%% (paper: direct faster)"
          (pname preset)
          (pct (t "direct" true) (t "bzImage-lz4" true))
          (pct (t "direct" false) (t "bzImage-lz4" false)))
      presets
  in
  report sh ~id:"fig4" ~title:"Figure 4: cache effects on bzImage vs direct boot"
    notes

(* ---------- Figure 5: bootstrap breakdown ---------- *)

let fig5 ?runs:_ ws =
  let sh =
    sheet [ "kernel"; "setup ms"; "decompression ms"; "parse+load ms"; "decomp %" ]
  in
  let notes =
    List.map
      (fun preset ->
        Workspace.warm_all ws;
        let vm =
          bz_vm ws preset Config.Nokaslr ~codec:"lz4" ~bz:Bzimage.Standard
            ~rando:Vm_config.Rando_off ()
        in
        let trace, _ = boot_once ~jitter:false ws ~seed:11L vm in
        let spans = Boot_runner.spans_by_label trace in
        let find label = Option.value ~default:0 (List.assoc_opt label spans) in
        let setup = find "loader-setup" in
        let decomp = find "decompress-lz4" in
        let main = find "loader-main" in
        let total_loader = setup + decomp + main in
        let span_summary ns = Imk_util.Stats.summarize [ float_of_int ns ] in
        let pct_decomp =
          100. *. float_of_int decomp /. float_of_int (max 1 total_loader)
        in
        row sh ~key:[ pname preset ] ~total:(span_summary total_loader)
          ~phases:
            [
              ("loader-setup", span_summary setup);
              ("decompress-lz4", span_summary decomp);
              ("loader-main", span_summary main);
            ]
          [
            msv (Imk_util.Units.ns_to_ms setup);
            msv (Imk_util.Units.ns_to_ms decomp);
            msv (Imk_util.Units.ns_to_ms main);
            Printf.sprintf "%.0f%%" pct_decomp;
          ];
        Printf.sprintf
          "%s: decompression = %.0f%% of loader time (paper: up to 73%%)"
          (pname preset) pct_decomp)
      presets
  in
  report sh ~id:"fig5"
    ~title:"Figure 5: bootstrap loader step breakdown (LZ4 bzImage)" notes

(* ---------- Figure 6: bootstrap methods ---------- *)

let fig6 ?(runs = 20) ws =
  let sh = sheet [ "method"; "in-monitor"; "bootstrap"; "decomp"; "total ms" ] in
  let p = Config.Aws and v = Config.Nokaslr in
  let r = Vm_config.Rando_off in
  let stats =
    grid ~runs ws
      [
        boot_cell [ "uncompressed(direct)" ] (direct_vm ws p v ~rando:r ());
        boot_cell [ "none-optimized" ]
          (bz_vm ws p v ~codec:"none" ~bz:Bzimage.None_optimized ~rando:r ());
        boot_cell [ "lz4" ] (bz_vm ws p v ~codec:"lz4" ~bz:Bzimage.Standard ~rando:r ());
        boot_cell [ "compression-none" ]
          (bz_vm ws p v ~codec:"none" ~bz:Bzimage.Standard ~rando:r ());
      ]
  in
  add_all sh [ `In_monitor; `Bootstrap; `Decomp; `Total ] stats;
  let ordered =
    List.sort
      (fun a b -> compare (total_ms stats [ b ]) (total_ms stats [ a ]))
      [ "compression-none"; "lz4"; "none-optimized"; "uncompressed(direct)" ]
  in
  report sh ~id:"fig6"
    ~title:"Figure 6: bootstrap method comparison (aws kernel, cached)"
    [
      "slowest→fastest: " ^ String.concat " > " ordered
      ^ "  (paper: none > lz4 > none-optimized > uncompressed)";
    ]

(* ---------- Figure 9: main evaluation ---------- *)

let fig9 ?(runs = 20) ws =
  let cols = [ `In_monitor; `Bootstrap; `Decomp; `Linux; `Total; `Min_max ] in
  let sh =
    sheet
      [ "kernel"; "rando"; "method"; "in-monitor"; "bootstrap"; "decomp"; "linux"; "total ms"; "min"; "max" ]
  in
  (* the 27 (preset x rando x method) cells *)
  let stats =
    grid ~runs ws
      (List.concat_map
         (fun preset ->
           List.concat_map
             (fun rando ->
               let variant = variant_of_rando rando in
               let cell m = boot_cell [ pname preset; rando_name rando; m ] in
               [
                 cell "in-monitor/direct"
                   (direct_vm ws preset variant ~rando ~kallsyms:(fg_kallsyms rando) ());
                 cell "none-optimized"
                   (bz_vm ws preset variant ~codec:"none" ~bz:Bzimage.None_optimized
                      ~rando ());
                 cell "lz4"
                   (bz_vm ws preset variant ~codec:"lz4" ~bz:Bzimage.Standard ~rando ());
               ])
             all_randos)
         presets)
  in
  add_all sh cols stats;
  (* contention variant (DESIGN.md §10): [contend_n] kaslr/lz4 guests
     share one event timeline per run under the run's contend
     capacities, so each boot's spans absorb its queue waits behind the
     others' disk reads and decompressions. One row, on the lupine
     preset — the microVM-optimized kernel is the one fleets pack
     densely enough for the "Study of Firecracker" contention regime to
     apply. Runs after (and reads nothing from) the solo cells: solo
     telemetry is byte-identical to a build without this block. A run
     holds [contend_n] guests live at once, so they come from an arena
     that pools that many: each run reuses the last run's guests instead
     of leaving them to the GC (20 runs of 12 x 256 MiB otherwise
     outgrow an 8 GiB host). *)
  let contend_n = 12 in
  let arena = Imk_memory.Arena.create ~max_per_size:contend_n () in
  let capacities = (Workspace.run_config ws).Workspace.contend in
  let contend_method = Printf.sprintf "lz4-x%d-contended" contend_n in
  let contended =
    List.map
      (fun preset ->
        let vm =
          bz_vm ws preset Config.Kaslr ~codec:"lz4" ~bz:Bzimage.Standard
            ~rando:Vm_config.Rando_kaslr ()
        in
        Workspace.warm_all ws;
        let s =
          Boot_runner.boot_contended ?tap:(tap ws) ~arena
            ?plans:(Workspace.plans ws) ~capacities ~n:contend_n ~runs
            ~cache:(Workspace.cache ws) vm
        in
        add sh ~key:[ pname preset; "kaslr"; contend_method ] cols
          s.Boot_runner.per_boot;
        (preset, s))
      [ Config.Lupine ]
  in
  let notes =
    List.map
      (fun p ->
        let get r m = total_ms stats [ pname p; r; m ] in
        let baseline = get "nokaslr" "in-monitor/direct" in
        let imk = get "kaslr" "in-monitor/direct" in
        let nopt = get "kaslr" "none-optimized" in
        let lz4 = get "kaslr" "lz4" in
        let imfg = get "fgkaslr" "in-monitor/direct" in
        let noptfg = get "fgkaslr" "none-optimized" in
        Printf.sprintf
          "%s: in-monitor KASLR +%.1f ms (+%.1f%%) over baseline (paper avg: +4%%, 2 ms); \
           vs none-opt self-rando %.0f%% faster (paper: up to 22%%); vs lz4 %.0f%% faster; \
           FGKASLR %.2fx baseline (paper: 1.8–2.3x), vs none-opt self %.0f%% faster"
          (pname p) (imk -. baseline) (pct imk baseline)
          (pct nopt imk) (pct lz4 imk)
          (imfg /. baseline) (pct noptfg imfg))
      presets
  in
  let contention_notes =
    List.map
      (fun (preset, (s : Boot_runner.contended_stats)) ->
        let ms = Imk_util.Units.ns_float_to_ms in
        let solo_p50 =
          (List.assoc [ pname preset; "kaslr"; "lz4" ] stats).Boot_runner.total
            .Imk_util.Stats.p50
        in
        let cont_p50 = s.Boot_runner.per_boot.Boot_runner.total.Imk_util.Stats.p50 in
        Printf.sprintf
          "%s contention: %d kaslr/lz4 boots on one timeline (disk=%d, \
           decompress=%d) — per-boot p50 %.1f ms, %.2fx solo lz4 p50 \
           (%.1f ms); makespan p50 %.1f ms"
          (pname preset) contend_n (fst capacities) (snd capacities)
          (ms cont_p50) (cont_p50 /. solo_p50) (ms solo_p50)
          (ms s.Boot_runner.makespan.Imk_util.Stats.p50))
      contended
  in
  report sh ~id:"fig9"
    ~title:"Figure 9: boot time by randomization method (cached, 256 MiB)"
    (notes @ contention_notes)

(* ---------- Figure 10: memory sweep ---------- *)

let fig10 ?(runs = 5) ws =
  (* 2 GiB guests make these the most expensive boots to simulate; the
     monitor-time-is-flat / linux-boot-is-linear shape needs few samples.
     They run on one domain: the arena keeps a scrubbed buffer of every
     swept size, and a second live 2 GiB guest on top of those exhausts
     an 8 GiB host *)
  let runs = min runs 8 in
  let sh =
    sheet [ "kernel"; "rando"; "mem"; "in-monitor ms"; "linux ms"; "total ms" ]
  in
  let mems = [ 256; 512; 1024; 2048 ] in
  (* the memory size is a numeric key cell: it must stay in the label or
     the four sweep points collapse onto one row and silently shadow each
     other *)
  let key preset rando mem_mib =
    [ pname preset; rando_name rando; Printf.sprintf "%dM" mem_mib ]
  in
  let sweeps =
    List.concat_map (fun preset -> List.map (fun r -> (preset, r)) all_randos) presets
  in
  let stats =
    grid ~jobs:1 ~runs ws
      (List.concat_map
         (fun (preset, rando) ->
           List.map
             (fun mem_mib ->
               boot_cell (key preset rando mem_mib)
                 (direct_vm ws preset (variant_of_rando rando) ~rando
                    ~mem:(mem_mib * 1024 * 1024) ()))
             mems)
         sweeps)
  in
  add_all sh [ `In_monitor; `Linux; `Total ] stats;
  let notes =
    List.map
      (fun (preset, rando) ->
        let vals =
          List.map
            (fun m -> msf (List.assoc (key preset rando m) stats).Boot_runner.in_monitor)
            mems
        in
        let spread =
          List.fold_left max neg_infinity vals -. List.fold_left min infinity vals
        in
        Printf.sprintf
          "%s/%s: in-monitor spread across memory sizes %.2f ms (paper: flat)"
          (pname preset) (rando_name rando) spread)
      sweeps
  in
  report sh ~id:"fig10" ~title:"Figure 10: guest memory impact on boot time" notes

(* ---------- Figure 11: LEBench ---------- *)

let lebench_layout ws rando ~seed =
  Workspace.warm_all ws;
  let vm = direct_vm ws Config.Aws (variant_of_rando rando) ~rando () in
  let trace, result = boot_once ~jitter:false ws ~seed vm in
  let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
  Imk_lebench.Runner.layout_of_guest ch result.Vmm.mem result.Vmm.params

let fig11 ?runs:_ ws =
  let base_layout = lebench_layout ws Vm_config.Rando_off ~seed:31L in
  let baseline = Imk_lebench.Runner.run ~fn_va:base_layout () in
  let sh = sheet [ "test"; "kaslr (norm)"; "fgkaslr (norm)" ] in
  let norm rando seed =
    let layout = lebench_layout ws rando ~seed in
    Imk_lebench.Runner.normalize ~baseline
      (Imk_lebench.Runner.run ~fn_va:layout ~noise_seed:seed ())
  in
  let k = norm Vm_config.Rando_kaslr 32L in
  let f = norm Vm_config.Rando_fgkaslr 33L in
  List.iter2
    (fun (name, kv) (_, fv) ->
      row sh ~key:[ name ] [ Printf.sprintf "%.3f" kv; Printf.sprintf "%.3f" fv ])
    k f;
  let avg l = Imk_util.Stats.mean (List.map snd l) in
  report sh ~id:"fig11"
    ~title:"Figure 11: LEBench normalized to aws-nokaslr"
    [
      Printf.sprintf "KASLR average %.1f%% slower (paper: <1%%, within noise)"
        ((avg k -. 1.) *. 100.);
      Printf.sprintf "FGKASLR average %.1f%% slower (paper: ~7%%)"
        ((avg f -. 1.) *. 100.);
    ]

(* ---------- QEMU cross-check ---------- *)

let qemu_check ?(runs = 10) ws =
  let sh = sheet [ "vmm"; "method"; "in-monitor"; "total ms" ] in
  let profiles = [ Profiles.firecracker; Profiles.qemu ] in
  let stats =
    grid ~runs ws
      (List.concat_map
         (fun profile ->
           let cell m = boot_cell [ profile.Profiles.name; m ] in
           [
             cell "bzImage-lz4"
               (bz_vm ws Config.Aws Config.Nokaslr ~codec:"lz4" ~bz:Bzimage.Standard
                  ~rando:Vm_config.Rando_off ~profile ());
             cell "direct"
               (direct_vm ws Config.Aws Config.Nokaslr ~rando:Vm_config.Rando_off
                  ~profile ());
           ])
         profiles)
  in
  add_all sh [ `In_monitor; `Total ] stats;
  let notes =
    List.map
      (fun profile ->
        let t m = total_ms stats [ profile.Profiles.name; m ] in
        Printf.sprintf "%s: direct %.0f%% faster than bzImage when cached"
          profile.Profiles.name (pct (t "bzImage-lz4") (t "direct")))
      profiles
  in
  report sh ~id:"qemu"
    ~title:"QEMU cross-check (§2.2): cached direct boot wins on both VMMs" notes

(* ---------- VM instantiation throughput (§5.2) ---------- *)

let throughput ?(runs = 30) ws =
  (* "there will be little effect on critical performance metrics such as
     the number of VMs instantiated per second" for KASLR; "with FGKASLR
     however, there is a larger tradeoff between an increase in security
     and a decrease in throughput" — a multi-core host simulation over
     sampled boot-time distributions *)
  let cores = 4 in
  let window_ms = 10_000. in
  let sh = sheet [ "scheme"; "mean boot ms"; "VMs/s (4 cores)"; "vs nokaslr" ] in
  let samples rando =
    Workspace.warm_all ws;
    let vm =
      direct_vm ws Config.Aws (variant_of_rando rando) ~rando
        ~kallsyms:(fg_kallsyms rando) ()
    in
    let boots = ref [] in
    for i = 1 to runs do
      let seed = Int64.of_int (3000 + i) in
      Imk_memory.Arena.with_buffer (Workspace.arena ws)
        ~size:vm.Vm_config.mem_bytes (fun mem ->
          let trace, _ = boot_once ~mem ws ~seed vm in
          boots := Imk_util.Units.ns_to_ms (Imk_vclock.Trace.total trace) :: !boots)
    done;
    !boots
  in
  (* greedy multi-core schedule: each core boots back to back, drawing
     cyclically from the sampled distribution. The rate divides by the
     actual elapsed span (latest counted completion), not the full
     window — the old full-window division biased boots/sec low whenever
     the last boot finished before the window closed. *)
  let rates =
    List.map
      (fun rando ->
        let s = samples rando in
        (rando, s, Imk_fleet.Sim.instantiation_rate ~cores ~window_ms (Array.of_list s)))
      all_randos
  in
  let rate r = List.assoc r (List.map (fun (r, _, x) -> (r, x)) rates) in
  let base_rate = rate Vm_config.Rando_off in
  List.iter
    (fun (rando, s, r) ->
      row sh ~key:[ rando_name rando ]
        ~total:(Imk_util.Stats.summarize (List.map (fun ms -> ms *. 1e6) s))
        [
          msv (Imk_util.Stats.mean s);
          Printf.sprintf "%.1f" r;
          Printf.sprintf "%+.1f%%" (100. *. ((r /. base_rate) -. 1.));
        ])
    rates;
  let loss r = 100. *. (1. -. (rate r /. base_rate)) in
  report sh ~id:"throughput"
    ~title:"VM instantiation throughput (§5.2, aws kernel, 4 host cores)"
    [
      Printf.sprintf
        "in-monitor KASLR costs %.1f%% of instantiation rate (paper: \
         \"little effect\"); FGKASLR costs %.1f%% (paper: \"a larger \
         tradeoff ... a decrease in throughput\")"
        (loss Vm_config.Rando_kaslr) (loss Vm_config.Rando_fgkaslr);
    ]

(* ---------- Security ---------- *)

let security ?runs:_ ws =
  let sh = sheet [ "scheme"; "base slots"; "base bits"; "perm bits"; "leak exposes" ] in
  let b = Workspace.built ws Config.Aws Config.Kaslr in
  let memsz =
    Config.modeled_of_actual b.Image.config
      (Imk_randomize.Loadelf.image_memsz b.Image.elf)
  in
  let modeled_fns =
    Config.modeled_of_actual b.Image.config b.Image.config.Config.functions
  in
  let attack rando seed =
    Workspace.warm_all ws;
    let variant = variant_of_rando rando in
    let vm = direct_vm ws Config.Aws variant ~rando () in
    let _, result = boot_once ~jitter:false ws ~seed vm in
    let built = Workspace.built ws Config.Aws variant in
    let rng = Imk_entropy.Prng.create ~seed in
    let n = Array.length built.Image.fn_va in
    let fracs =
      List.init 10 (fun _ ->
          let leaked_fn = Imk_entropy.Prng.next_int rng n in
          (Imk_security.Attack.leak_and_locate ~mem:result.Vmm.mem
             ~params:result.Vmm.params ~link_fn_va:built.Image.fn_va ~leaked_fn
             ~scheme:(rando_name rando))
            .Imk_security.Attack.gadgets_exposed_fraction)
    in
    Imk_util.Stats.mean fracs
  in
  let module E = Imk_security.Entropy_analysis in
  let exposed =
    List.map
      (fun (r, rando, seed) ->
        let frac = attack rando seed in
        row sh ~key:[ r.E.scheme ]
          [
            string_of_int r.E.base_slots;
            Printf.sprintf "%.1f" r.E.base_bits;
            Printf.sprintf "%.0f" r.E.permutation_bits;
            Printf.sprintf "%.1f%% of functions" (frac *. 100.);
          ];
        (r.E.scheme, frac))
      [
        (E.nokaslr, Vm_config.Rando_off, 51L);
        (E.kaslr ~image_memsz:memsz, Vm_config.Rando_kaslr, 52L);
        ( E.fgkaslr ~image_memsz:memsz ~functions:modeled_fns,
          Vm_config.Rando_fgkaslr,
          53L );
      ]
  in
  (* §4.3 entropy equivalence needs equiprobable slots: chi-square over
     many draws *)
  let module U = Imk_security.Uniformity in
  let offsets =
    U.test_virtual_offsets ~image_memsz:memsz ~draws:50_000 ~seed:99L
  in
  let perm =
    U.test_permutation_positions ~sections:512 ~draws:50_000 ~seed:98L
  in
  (* each chi-square note is its verdict's detail *)
  let uniform name (u : U.verdict) evidence =
    verdict name u.U.uniform
      (Printf.sprintf "%s: %s -> %s" name evidence
         (if u.U.uniform then "uniform" else "BIASED"))
  in
  let offset_uniform =
    uniform "offset uniformity" offsets
      (Printf.sprintf
         "chi2 = %.0f vs 1%%-level threshold %.0f over %d slots x %d draws"
         offsets.U.statistic offsets.U.threshold offsets.U.slots
         offsets.U.draws)
  in
  let perm_uniform =
    uniform "shuffle-position uniformity" perm
      (Printf.sprintf "chi2 = %.0f vs threshold %.0f" perm.U.statistic
         perm.U.threshold)
  in
  (* §3.1: one leaked pointer locates every function under nokaslr and
     KASLR, almost none under FGKASLR (the bound test_security holds) *)
  let leak =
    let frac s = List.assoc s exposed in
    verdict "leak-and-locate exposure"
      (frac "nokaslr" = 1. && frac "kaslr" = 1. && frac "fgkaslr" < 0.05)
      (Printf.sprintf
         "one leak exposes %s of functions (nokaslr, kaslr, fgkaslr; need \
          100%%, 100%%, < 5%%)"
         (String.concat ", "
            (List.map (fun (_, f) -> Printf.sprintf "%.1f%%" (f *. 100.)) exposed)))
  in
  report sh ~id:"security"
    ~verdicts:[ offset_uniform; perm_uniform; leak ]
    ~title:"Security: entropy and the value of a single leak (§3.1/§4.3)"
    [
      "one leak exposes the whole kernel under nokaslr/kaslr, one function under fgkaslr";
      offset_uniform.detail;
      perm_uniform.detail;
    ]

(* ---------- Ablations ---------- *)

let ablation_kallsyms ?(runs = 20) ws =
  let sh =
    sheet [ "policy"; "boot ms"; "first-lookup ms"; "boot overhead vs deferred" ]
  in
  let vm kallsyms =
    direct_vm ws Config.Aws Config.Fgkaslr ~rando:Vm_config.Rando_fgkaslr
      ~kallsyms ()
  in
  let stats =
    grid ~runs ws
      [
        boot_cell [ "eager" ] (vm Vm_config.Kallsyms_eager);
        boot_cell [ "deferred" ] (vm Vm_config.Kallsyms_deferred);
      ]
  in
  (* time-to-first-lookup under the deferred policy *)
  let first_lookup_ms =
    Workspace.warm_all ws;
    let trace, result =
      boot_once ~jitter:false ws ~seed:61L (vm Vm_config.Kallsyms_deferred)
    in
    let ch = Imk_vclock.Charge.create trace Imk_vclock.Cost_model.default in
    let before = Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) in
    let state = Imk_guest.Kallsyms.create () in
    let _ =
      Imk_guest.Kallsyms.read_for_user state ch result.Vmm.mem result.Vmm.params
        ~privileged:true ~index:0
    in
    Imk_util.Units.ns_to_ms
      (Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) - before)
  in
  let e = total_ms stats [ "eager" ] and d = total_ms stats [ "deferred" ] in
  add sh ~key:[ "eager" ] [ `Total ]
    ~extra:[ "0.0"; Printf.sprintf "+%.1f ms (+%.0f%%)" (e -. d) (pct e d) ]
    (List.assoc [ "eager" ] stats);
  add sh ~key:[ "deferred" ] [ `Total ] ~extra:[ msv first_lookup_ms; "baseline" ]
    (List.assoc [ "deferred" ] stats);
  report sh ~id:"ablation-kallsyms"
    ~title:"Ablation: eager vs deferred kallsyms fixup (§4.3)"
    [
      Printf.sprintf
        "eager fixup adds %.0f%% to fgkaslr boot (paper: kallsyms ≈ 22%% of boot); \
         deferred pays %.1f ms at first /proc/kallsyms access"
        (pct e d) first_lookup_ms;
    ]

let ablation_orc ?(runs = 20) ws =
  (* a special ORC-enabled fgkaslr build *)
  let base = Workspace.config ws Config.Aws Config.Fgkaslr in
  let cfg = { base with Config.unwinder_orc = true; name = "aws-fgkaslr-orc" } in
  let built = Image.build cfg in
  let disk = Workspace.disk ws in
  Imk_storage.Disk.add disk ~name:"aws-fgkaslr-orc.vmlinux" built.Image.vmlinux;
  Imk_storage.Disk.add disk ~name:"aws-fgkaslr-orc.relocs" built.Image.relocs_bytes;
  let cell name orc =
    boot_cell [ name ]
      (Vm_config.make ~rando:Vm_config.Rando_fgkaslr
         ~relocs_path:(Some "aws-fgkaslr-orc.relocs") ~orc
         ~kernel_path:"aws-fgkaslr-orc.vmlinux" ~kernel_config:cfg ())
  in
  let stats =
    grid ~runs ws [ cell "skip" Vm_config.Orc_skip; cell "update" Vm_config.Orc_update ]
  in
  let skip = List.assoc [ "skip" ] stats and update = List.assoc [ "update" ] stats in
  let s = msf skip.Boot_runner.total and u = msf update.Boot_runner.total in
  let table = Imk_util.Table.create ~headers:[ "orc policy"; "boot ms" ] in
  Imk_util.Table.add_row table [ "skip (paper's choice)"; msv s ];
  Imk_util.Table.add_row table [ "update"; msv u ];
  report
    { table; rows = [ stats_row "orc-update" update; stats_row "orc-skip" skip ] }
    ~id:"ablation-orc" ~title:"Ablation: ORC unwind table update cost (§4.3)"
    [ Printf.sprintf "updating ORC would add %.1f ms (+%.1f%%)" (u -. s) (pct u s) ]

let ablation_page_sharing ?runs:_ ws =
  let boot seed =
    Workspace.warm_all ws;
    let vm = direct_vm ws Config.Aws Config.Fgkaslr ~rando:Vm_config.Rando_fgkaslr () in
    snd (boot_once ~jitter:false ws ~seed vm)
  in
  (* KSM-style content-based sharing over the pages that hold each
     guest's kernel image (location-independent, zero pages excluded by
     construction since the span covers the loaded image) *)
  let zero_hash = Imk_util.Crc.crc32 (Bytes.make 4096 '\000') 0 4096 in
  let page_hash_list r =
    let mem = r.Vmm.mem in
    let page = 4096 in
    let lo = r.Vmm.params.Imk_guest.Boot_params.phys_load in
    let hi = min (Imk_memory.Guest_mem.size mem) (lo + (8 * 1024 * 1024)) in
    let hashes = ref [] in
    let off = ref lo in
    while !off + page <= hi do
      let h = Imk_memory.Guest_mem.crc32_range mem ~pa:!off ~len:page in
      (* all-zero pages merge trivially and say nothing about layouts *)
      if h <> zero_hash then hashes := h :: !hashes;
      off := !off + page
    done;
    !hashes
  in
  let identical_pages a b =
    let ha = page_hash_list a in
    let hb = Hashtbl.create 1024 in
    List.iter (fun h -> Hashtbl.replace hb h ()) (page_hash_list b);
    let shared = List.length (List.filter (Hashtbl.mem hb) ha) in
    float_of_int shared /. float_of_int (max 1 (List.length ha)) *. 100.
  in
  let a = boot 71L and b = boot 71L and c = boot 72L in
  let sh = sheet [ "pairing"; "identical guest pages" ] in
  row sh ~key:[ "same seed (host-grouped VMs)" ]
    [ Printf.sprintf "%.1f%%" (identical_pages a b) ];
  row sh ~key:[ "different seeds" ] [ Printf.sprintf "%.1f%%" (identical_pages a c) ];
  report sh ~id:"ablation-page-sharing"
    ~title:"Ablation: memory density under FGKASLR (§6)"
    [
      "in-monitor randomization lets the host pick a shared seed for \
       related VMs, restoring page-merging that fine-grained \
       randomization otherwise nullifies";
    ]

let ablation_rerando ?(runs = 20) ws =
  (* a 40 ms serverless function invocation under three platform
     policies: persistent VM (boot once, same layout forever),
     reboot-per-invocation with in-monitor KASLR, and
     reboot-per-invocation with self-randomizing bzImage boot *)
  let invocation_ms = 40. in
  let sh =
    sheet [ "policy"; "boot ms"; "invocations/s"; "layouts per 100 invocations" ]
  in
  let in_monitor =
    direct_vm ws Config.Aws Config.Kaslr ~rando:Vm_config.Rando_kaslr ()
  in
  let self_rando =
    bz_vm ws Config.Aws Config.Kaslr ~codec:"none" ~bz:Bzimage.None_optimized
      ~rando:Vm_config.Rando_kaslr ()
  in
  let persistent = ("persistent VM (SAND-style)", in_monitor, false)
  and inm = ("reboot + in-monitor KASLR", in_monitor, true)
  and self = ("reboot + self-rando bzImage", self_rando, true) in
  let policies = [ persistent; inm; self ] in
  let stats =
    grid ~runs ws (List.map (fun (name, vm, _) -> boot_cell [ name ] vm) policies)
  in
  let rate (name, _, reboot) =
    let boot_ms = total_ms stats [ name ] in
    1000. /. (if reboot then boot_ms +. invocation_ms else invocation_ms)
  in
  List.iter
    (fun ((name, _, reboot) as p) ->
      add sh ~key:[ name ] [ `Total ]
        ~extra:
          [ Printf.sprintf "%.1f" (rate p); string_of_int (if reboot then 100 else 1) ]
        (List.assoc [ name ] stats))
    policies;
  report sh ~id:"ablation-rerando"
    ~title:"Ablation: re-randomization between invocations (§7)"
    [
      Printf.sprintf
        "fresh randomization every invocation costs %.0f%% of persistent-VM \
         throughput with in-monitor KASLR (%.0f%% with self-rando) — the \
         opportunity SAND-style reuse forgoes"
        (100. *. (1. -. (rate inm /. rate persistent)))
        (100. *. (1. -. (rate self /. rate persistent)));
    ]

let ablation_devices ?(runs = 20) ws =
  (* a fuller microVM: serial console, rootfs block device, network —
     the devices a Lambda-style instance actually attaches. Off in the
     paper-calibrated experiments; here we measure what they add, and how
     a QEMU-style device model amplifies the monitor's share. *)
  let rootfs = Imk_kernel.Rootfs.make ~size:(512 * 1024) ~seed:77L in
  Imk_storage.Disk.add (Workspace.disk ws) ~name:"rootfs.img" rootfs;
  let sh = sheet [ "vmm"; "devices"; "in-monitor"; "linux"; "total ms" ] in
  let cell profile devices label =
    boot_cell [ profile.Profiles.name; label ]
      (Vm_config.make ~profile ~rando:Vm_config.Rando_kaslr
         ~relocs_path:(Some (Workspace.relocs_path ws Config.Aws Config.Kaslr))
         ~devices
         ~kernel_path:(Workspace.vmlinux_path ws Config.Aws Config.Kaslr)
         ~kernel_config:(Workspace.config ws Config.Aws Config.Kaslr)
         ())
  in
  let full =
    [
      Devices.Serial;
      Devices.Virtio_blk { image = "rootfs.img" };
      Devices.Virtio_net;
    ]
  in
  let fc = Profiles.firecracker in
  let stats =
    grid ~runs ws
      [
        cell fc [] "none";
        cell fc full "serial+blk+net";
        cell Profiles.qemu full "serial+blk+net";
      ]
  in
  add_all sh [ `In_monitor; `Linux; `Total ] stats;
  report sh ~id:"ablation-devices"
    ~title:"Ablation: the device model's share of a microVM boot"
    [
      Printf.sprintf
        "a Lambda-style device set adds %.1f ms on Firecracker's minimal \
         device model (rootfs superblock read included); the same set \
         under a QEMU-style model shows why lightweight monitors keep \
         In-Monitor small (§2.1)"
        (total_ms stats [ fc.Profiles.name; "serial+blk+net" ]
        -. total_ms stats [ fc.Profiles.name; "none" ]);
    ]

let ablation_unikernel ?(runs = 20) ws =
  (* §6: unikernels cannot self-randomize (no bootstrap loader exists);
     the monitor is the only possible randomizing principal — and at
     unikernel scale, whole-system function-granular ASLR costs almost
     nothing *)
  let disk = Workspace.disk ws in
  let register (b : Image.built) =
    let base = b.Image.config.Config.name in
    Imk_storage.Disk.add disk ~name:(base ^ ".bin") b.Image.vmlinux;
    if b.Image.config.Config.relocatable then
      Imk_storage.Disk.add disk ~name:(base ^ ".relocs") b.Image.relocs_bytes;
    base
  in
  let plain = register (Unikernel.build ~aslr:false ()) in
  let rando = register (Unikernel.build ~aslr:true ()) in
  let sh =
    sheet [ "configuration"; "boot ms"; "min"; "max"; "distinct layouts/20" ]
  in
  let base_key = [ "unikernel, no ASLR (today)" ]
  and aslr_key = [ "unikernel + in-monitor whole-system FGASLR" ] in
  let cell key ~kernel ~rando:mode ~relocs =
    boot_cell key
      (Vm_config.make ~profile:Profiles.solo5 ~rando:mode ~relocs_path:relocs
         ~mem_bytes:(64 * 1024 * 1024) ~kernel_path:kernel
         ~kernel_config:(Unikernel.config ~aslr:(mode <> Vm_config.Rando_off) ())
         ())
  in
  let cells =
    [
      cell base_key ~kernel:(plain ^ ".bin") ~rando:Vm_config.Rando_off ~relocs:None;
      cell aslr_key ~kernel:(rando ^ ".bin") ~rando:Vm_config.Rando_fgkaslr
        ~relocs:(Some (rando ^ ".relocs"));
    ]
  in
  let stats = grid ~runs ws cells in
  List.iter
    (fun c ->
      (* layout diversity across instances *)
      let bases = Hashtbl.create 32 in
      for i = 1 to 20 do
        let _, r = boot_once ~jitter:false ws ~seed:(Int64.of_int (50 + i)) c.vm in
        Hashtbl.replace bases r.Vmm.params.Imk_guest.Boot_params.virt_base ()
      done;
      add sh ~key:c.key [ `Total; `Min_max ]
        ~extra:[ string_of_int (Hashtbl.length bases) ]
        (List.assoc c.key stats))
    cells;
  let base_ms = total_ms stats base_key and aslr_ms = total_ms stats aslr_key in
  report sh ~id:"ablation-unikernel"
    ~title:"Ablation: in-monitor ASLR for unikernels (§6)"
    [
      Printf.sprintf
        "whole-system function-granular ASLR costs +%.2f ms on a %.1f ms \
         unikernel boot; with no bootstrap loader, the monitor is the \
         only principal that can randomize at all"
        (aslr_ms -. base_ms) base_ms;
    ]

(* a fresh virtual clock, for one-off charges outside any boot *)
let linear_charge () = snd (Boot_runner.fresh_charge ())

(* the serialized snapshot of one boot of [vm] on the workspace cache *)
let snapshot_blob ws vm =
  Snapshot.serialize
    (Snapshot.capture
       (Vmm.boot ?plans:(Workspace.plans ws) (linear_charge ())
          (Workspace.cache ws) { vm with Vm_config.seed = 404L }))

let ablation_zygote ?runs:_ ws =
  (* instance-creation strategies for a serverless host (§7):
     fresh boot with in-monitor KASLR vs single-snapshot restore vs a
     Morula-style pool of pre-randomized zygotes *)
  let table =
    Imk_util.Table.create
      ~headers:
        [ "strategy"; "create ms"; "distinct layouts"; "resident memory" ]
  in
  let vm =
    direct_vm ws Config.Aws Config.Kaslr ~rando:Vm_config.Rando_kaslr
      ~mem:(64 * 1024 * 1024) ()
  in
  let working_set_pages = 2048 (* 8 MiB touched before first request *) in
  (* fresh boots *)
  let fresh = List.assoc [ "fresh" ] (grid ~runs:10 ws [ boot_cell [ "fresh" ] vm ]) in
  let fresh_ms = msf fresh.Boot_runner.total in
  Imk_util.Table.add_row table
    [ "fresh boot (in-monitor KASLR)"; msv fresh_ms; "per-instance"; "0" ];
  (* single snapshot *)
  let base =
    Vmm.boot ?plans:(Workspace.plans ws) (linear_charge ()) (Workspace.cache ws)
      { vm with Vm_config.seed = 404L }
  in
  let snap = Snapshot.capture base in
  let elapsed_ms f =
    let ch = linear_charge () in
    let t0 = Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) in
    f ch;
    Imk_util.Units.ns_to_ms (Imk_vclock.Clock.now (Imk_vclock.Charge.clock ch) - t0)
  in
  let restore_ms =
    elapsed_ms (fun ch -> ignore (Snapshot.restore ch snap ~working_set_pages))
  in
  Imk_util.Table.add_row table
    [
      "single snapshot restore";
      msv restore_ms;
      "1 (cloned)";
      Imk_util.Units.bytes_to_string (Snapshot.encoded_bytes snap);
    ];
  (* Morula pool *)
  let pool_size = 8 in
  let pool =
    Zygote.build (linear_charge ()) (Workspace.cache ws)
      ~make_vm:(fun ~seed -> { vm with Vm_config.seed })
      ~size:pool_size
  in
  let draw_ms =
    let rng = Imk_entropy.Prng.create ~seed:11L in
    elapsed_ms (fun ch ->
        ignore (Zygote.draw ch pool ~rng ~working_set_pages).Vmm.stats)
  in
  Imk_util.Table.add_row table
    [
      Printf.sprintf "Morula pool of %d zygotes" pool_size;
      msv draw_ms;
      string_of_int (Zygote.distinct_layouts pool);
      Imk_util.Units.bytes_to_string (Zygote.memory_bytes pool);
    ];
  report
    {
      table;
      rows =
        [
          scalar_row "zygote-draw" (draw_ms *. 1e6);
          scalar_row "snapshot-restore" (restore_ms *. 1e6);
          stats_row "fresh-boot" fresh;
        ];
    }
    ~id:"ablation-zygote"
    ~title:"Ablation: snapshots and zygote pools vs randomized boots (§7)"
    [
      Printf.sprintf
        "restores are %.0fx faster than boots but clone one layout; a \
         Morula pool restores diversity at %s of resident memory — \
         in-monitor KASLR shrinks the gap the pool exists to bridge"
        (fresh_ms /. restore_ms)
        (Imk_util.Units.bytes_to_string (Zygote.memory_bytes pool));
    ]

(* ---------- supervised campaigns: one target, one run, one tally ---------- *)

(* faults, resilience and fleet's calibration are cell lists over one
   supervised run: a cell is a target plus the conditions of each of its
   runs, every campaign's cells fan out through [run_cells], and one
   [tally] turns a cell's reports into ok/recovered/failed/silent counts
   and the campaign's soundness verdict *)

module F = Imk_fault.Failure
module I = Imk_fault.Inject
module S = Boot_supervisor

(* a workspace image's name and pristine bytes *)
let file ws name = (name, Imk_storage.Disk.find (Workspace.disk ws) name)

(* a supervised boot path: its pristine files, the VM that boots them,
   the snapshot it restores from (if any), and the seams a weather
   forecast draws from — forecasts depend on the list's order and
   length *)
type target = {
  preset : Config.preset;
  path : string;  (* "direct/kaslr" *)
  files : (string * bytes) list;
  snapshot : (string * bytes) option;  (* disk name, serialized blob *)
  vm : Vm_config.t;
  seams : I.kind list;
}

let target_mem = 64 * 1024 * 1024

let direct_target ws preset =
  let vm =
    direct_vm ws preset Config.Kaslr ~rando:Vm_config.Rando_kaslr ~mem:target_mem ()
  in
  {
    preset;
    path = "direct/kaslr";
    files =
      file ws vm.Vm_config.kernel_path
      :: Option.to_list (Option.map (file ws) vm.Vm_config.relocs_path);
    snapshot = None;
    vm;
    seams =
      [
        I.Truncate_image; I.Flip_image_magic; I.Flip_entry_magic;
        I.Truncate_relocs; I.Flip_relocs_magic; I.Read_fault_entry_magic;
      ];
  }

let bz_target ws preset =
  let vm =
    bz_vm ws preset Config.Kaslr ~codec:"lz4" ~bz:Bzimage.Standard
      ~rando:Vm_config.Rando_kaslr ~mem:target_mem ()
  in
  {
    preset;
    path = "bz/lz4/kaslr";
    files = [ file ws vm.Vm_config.kernel_path ];
    snapshot = None;
    vm;
    seams = [ I.Flip_image_magic; I.Truncate_bzimage; I.Flip_bz_payload_crc ];
  }

(* restores from one base snapshot of the direct target; a failed
   restore degrades to a cold boot of the direct VM. The one-element
   seam list is a stand-in so the weather draws corruptions at the
   normal rate *)
let snapshot_target ws preset =
  let d = direct_target ws preset in
  {
    d with
    path = "snapshot/kaslr";
    snapshot = Some ("base.snapshot", snapshot_blob ws d.vm);
    seams = [ I.Flip_image_magic ];
  }

(* a fault a run may carry: an armed seam, or a corruption of the
   target's snapshot blob *)
type fault = Seam of I.kind | Blob_flip | Blob_truncate

let fault_name = function
  | None -> "none"
  | Some (Seam k) -> I.name k
  | Some Blob_flip -> "snapshot-bit-flip"
  | Some Blob_truncate -> "snapshot-truncate"

type conditions = { fault : fault option; fault_seed : int; cold : bool }

let clean = { fault = None; fault_seed = 0; cold = false }

(* the per-run fault seed of the deterministic sweeps *)
let fault_seed run = (131 * run) + 7

(* one supervised run of [t] under [c], fully private: its own disk
   holding copies of the target's files (an armed fault or a corrupted
   blob touches only this run's bytes), a page cache warm unless
   [c.cold], and guest memory borrowed from the workspace arena. The
   plan cache is deliberately shared across runs and faults: content
   addressing must keep corrupted images from ever resolving to a
   pristine image's plan, and the fault campaign is the proof *)
let supervised ws ?fleet ?jitter t ~seed c =
  let snapshot =
    match (t.snapshot, c.fault) with
    | Some (name, blob), Some Blob_flip ->
        Some (name, I.flip_one_bit ~seed:c.fault_seed blob)
    | Some (name, blob), Some Blob_truncate ->
        Some (name, Bytes.sub blob 0 (Bytes.length blob - (1 + (c.fault_seed mod 128))))
    | None, Some (Blob_flip | Blob_truncate) ->
        invalid_arg ("supervised: snapshot fault on " ^ t.path)
    | s, (None | Some (Seam _)) -> s
  in
  let files = t.files @ Option.to_list snapshot in
  let disk = Imk_storage.Disk.create () in
  List.iter (fun (name, b) -> Imk_storage.Disk.add disk ~name b) files;
  let inject =
    match c.fault with
    | Some (Seam k) ->
        (I.arm k ~seed:c.fault_seed ~disk ~kernel_path:t.vm.Vm_config.kernel_path
           ?relocs_path:t.vm.Vm_config.relocs_path ())
          .I.inject
    | _ -> None
  in
  let cache = Imk_storage.Page_cache.create disk in
  if not c.cold then
    List.iter (fun (n, _) -> Imk_storage.Page_cache.warm cache n) files;
  let ctx = { S.cache; inject; plans = Workspace.plans ws } in
  let tap = tap ws and arena = Workspace.arena ws in
  match snapshot with
  | None -> S.supervise ?jitter ?tap ~arena ?fleet ~seed ~ctx t.vm
  | Some (snapshot_path, _) ->
      S.supervise_snapshot ?jitter ?tap ~arena ?fleet ~seed ~ctx ~snapshot_path
        ~working_set_pages:2048 t.vm

(* a campaign cell: [runs] supervised runs of [target], run i's seed and
   conditions pure in i, all through one fleet built from [policy] when
   there is one *)
type cell = {
  target : target;
  policy : S.policy option;
  runs : int;
  conditions : int -> conditions;
}

(* every cell's runs with their conditions, and its fleet's breaker
   trips. Cell 0 runs first on the calling domain, so the trace tap sees
   its first run first at any jobs; the other cells fan out over the
   run's jobs. A cell's runs stay in order on one domain, so its fleet is
   sequential state and the result is bit-identical for any --jobs
   value *)
let run_cells ws cells =
  let cells = Array.of_list cells in
  Array.to_list
    (Campaign.map ~jobs:(jobs ws) ~prime:1 ~tasks:(Array.length cells) (fun i ->
         let cell = cells.(i) in
         let fleet = Option.map (fun policy -> S.fleet ~policy ()) cell.policy in
         let runs =
           List.init cell.runs (fun i ->
               let run = i + 1 in
               let c = cell.conditions run in
               (c, supervised ws ?fleet cell.target ~seed:(Boot_runner.run_seed run) c))
         in
         (runs, Option.fold ~none:0 ~some:S.breaker_trips fleet)))

let count p l = List.length (List.filter p l)

(* [l] without repeats, in first-seen order *)
let distinct l =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] l

let is_ok (r : S.report) = Result.is_ok r.S.outcome
let recovered (r : S.report) = is_ok r && r.S.events <> []

(* every recovery event of [reports], in occurrence order *)
let events reports = List.concat_map (fun (r : S.report) -> r.S.events) reports

let total_ns (r : S.report) = float_of_int r.S.total_ns

type tally = {
  n : int;
  ok : int;
  n_recovered : int;
  failed : int;
  silent : int;  (* armed runs that booted green with no recorded event *)
  armed : int;
}

let tally runs =
  let reports = List.map snd runs in
  let ok = count is_ok reports in
  {
    n = List.length runs;
    ok;
    n_recovered = count recovered reports;
    failed = List.length runs - ok;
    silent =
      count (fun (c, r) -> c.fault <> None && is_ok r && r.S.events = []) runs;
    armed = count (fun (c, _) -> c.fault <> None) runs;
  }

(* the line every supervised campaign holds: an armed fault must end as
   a typed failure or as a recovery with a recorded event — a silently
   green boot over corrupted bytes is a validator bug. [pass] is the
   campaign's evidence when it holds *)
let soundness t ~noun ~pass =
  verdict "soundness" (t.silent = 0)
    (if t.silent = 0 then pass
     else
       Printf.sprintf
         "SOUNDNESS VIOLATION: %d of %d %s booted green with no recorded event"
         t.silent t.armed noun)

(* ---------- Fault-injection campaign ---------- *)

let faults ?(runs = 20) ws =
  (* The deterministic per-kind sweep: every boot path under every fault
     it can carry, [runs] cold supervised runs each. *)
  let sweep =
    List.concat_map
      (fun t ->
        let faults =
          match t.snapshot with
          | Some _ -> [ Blob_flip; Blob_truncate ]
          | None -> List.map (fun k -> Seam k) (t.seams @ [ I.Transient_init 1 ])
        in
        List.map (fun f -> (t, f)) (None :: List.map Option.some faults))
      (List.map
         (fun target -> target ws Config.Aws)
         [ direct_target; bz_target; snapshot_target ])
  in
  let results =
    run_cells ws
      (List.map
         (fun (target, fault) ->
           {
             target;
             policy = None;
             runs;
             conditions =
               (fun run -> { fault; fault_seed = fault_seed run; cold = true });
           })
         sweep)
  in
  let sh =
    sheet
      [ "path"; "fault"; "runs"; "ok"; "recovered"; "failed"; "retries";
        "silent"; "failure kinds"; "total ms" ]
  in
  List.iter2
    (fun (target, fault) (rs, _) ->
      let t = tally rs in
      let reports = List.map snd rs in
      let kinds =
        distinct
          (List.filter_map
             (fun (r : S.report) ->
               Result.fold ~ok:(fun _ -> None) ~error:(fun f -> Some (F.kind_name f))
                 r.S.outcome)
             reports)
      in
      let total =
        match List.map total_ns reports with
        | [] -> None
        | totals -> Some (Imk_util.Stats.summarize totals)
      in
      row sh ~key:[ target.path; fault_name fault ] ?total
        [
          string_of_int t.n; string_of_int t.ok;
          string_of_int t.n_recovered; string_of_int t.failed;
          string_of_int
            (count (function F.Retried _ -> true | _ -> false) (events reports));
          string_of_int t.silent;
          (match kinds with [] -> "-" | l -> String.concat "," l);
          msv (Option.fold ~none:0. ~some:msf total);
        ])
    sweep results;
  let t = tally (List.concat_map fst results) in
  let soundness =
    soundness t ~noun:"fault-injected runs"
      ~pass:
        (Printf.sprintf
           "soundness: 0 silent successes across %d fault-injected runs — every \
            armed fault was detected as a typed failure or recovered with a \
            recorded event"
           t.armed)
  in
  report sh ~verdicts:[ soundness ] ~id:"faults"
    ~title:"Fault injection: typed detection and supervised recovery"
    [
      soundness.detail;
      "recovery is never free: retry backoff, reloc re-derivation and \
       cold-boot fallbacks are charged to the virtual clock in their own \
       spans (retry-backoff, rederive-relocs, snapshot-load)";
    ]

(* ---------- Resilience campaign: weather x preset x boot path ---------- *)

let resilience ?(runs = 10) ws =
  (* The weather sample: profile x preset x boot path under fleet
     supervision (circuit breakers, per-attempt deadlines, a campaign
     retry budget), holding two lines: an armed fault must never boot
     silently green, and a recoverable fault must end recovered or as an
     accounted degradation (retry budget dry, breaker open). Weather and
     fault seeds are pure in the (cell, run) index. *)
  let module W = Imk_fault.Weather in
  let ms = Imk_util.Units.ns_float_to_ms in
  (* a target's per-attempt virtual-time budget: 1.5x a clean warm boot
     (or restore) without jitter — generous against ~1% jitter, tight
     enough that a cold-cache overload overruns it. A snapshot target's
     budget must admit both a clean restore and the cold-boot fallback;
     a cold blob read still overruns it *)
  let budget t =
    let calibrated t =
      let r = supervised ws ~jitter:false t ~seed:1L clean in
      match r.S.outcome with
      | Ok _ -> r.S.total_ns * 3 / 2
      | Error f -> invalid_arg ("resilience: calibration failed: " ^ F.describe f)
    in
    match t.snapshot with
    | None -> calibrated t
    | Some _ -> max (calibrated { t with snapshot = None }) (calibrated t)
  in
  let targets =
    List.map
      (fun t -> (t, budget t))
      (List.map (direct_target ws) presets
      @ [ bz_target ws Config.Aws; snapshot_target ws Config.Aws ])
  in
  let policy_for profile ~budget =
    let base = { S.default_policy with S.attempt_budget_ns = Some budget } in
    match profile with
    | W.Calm | W.Flaky -> base
    | W.Storm -> { base with S.retry_budget = max 3 (runs / 2) }
  in
  let sweep =
    List.concat_map
      (fun profile -> List.map (fun t -> (profile, t)) targets)
      W.all_profiles
  in
  let results =
    run_cells ws
      (List.mapi
         (fun ti (profile, (target, budget)) ->
           let weather = W.make profile ~seed:(1 + ti) in
           {
             target;
             policy = Some (policy_for profile ~budget);
             runs;
             conditions =
               (fun run ->
                 let fc = W.forecast weather ~run ~seams:target.seams in
                 {
                   (* a snapshot target reads a drawn seam as a bit flip
                      of its CRC-framed blob, detectable by construction *)
                   fault =
                     Option.map
                       (fun k -> if target.snapshot = None then Seam k else Blob_flip)
                       fc.W.fault;
                   fault_seed = W.fault_seed weather ~run;
                   cold = fc.W.cold;
                 });
           })
         sweep)
  in
  (* sequential aggregation, in task order *)
  let sh =
    sheet
      [
        "profile"; "path"; "runs"; "ok"; "recovered"; "failed"; "short";
        "silent"; "unrec"; "retries"; "aborts"; "fallbacks"; "trips";
        "mttr ms"; "p50 ms"; "p99 ms";
      ]
  in
  let unrecovered_total = ref 0 in
  let calm_ns = ref [] and storm_ns = ref [] in
  let sum_ns spans = float_of_int (List.fold_left (fun a (_, d) -> a + d) 0 spans) in
  List.iter2
    (fun (profile, (target, _)) (rf, trips) ->
      let t = tally rf in
      let rs = List.map snd rf in
      let totals = List.map total_ns rs in
      (match profile with
      | W.Calm -> calm_ns := totals @ !calm_ns
      | W.Storm -> storm_ns := totals @ !storm_ns
      | W.Flaky -> ());
      (* a recoverable fault must end recovered or as an accounted
         degradation (retry budget dry, breaker open) *)
      let unrecovered (r : S.report) =
        match r.S.outcome with
        | Ok _ -> false
        | Error f ->
            (match f with
            | F.Transient _ | F.Deadline_exceeded _ -> true
            | F.Bad_reloc _ -> target.vm.Vm_config.relocs_path <> None
            | F.Decode_error _ -> target.snapshot <> None
            | _ -> false)
            && not
                 (List.exists
                    (function
                      | F.Retry_budget_exhausted _ | F.Breaker_short_circuit _
                      | F.Breaker_probe { succeeded = false } ->
                          true
                      | _ -> false)
                    r.S.events)
      in
      let unrec = count unrecovered rs in
      let n_events p = string_of_int (count p (events rs)) in
      let s = Imk_util.Stats.summarize totals in
      (* telemetry: the cell's total distribution plus per-recovery-label
         per-boot sums as phases (raw ns floats, never re-parsed) *)
      let labels =
        distinct (List.concat_map (fun (r : S.report) -> List.map fst r.S.recovery) rs)
      in
      let phase_sums label =
        List.filter_map
          (fun (r : S.report) ->
            match List.filter (fun (l, _) -> l = label) r.S.recovery with
            | [] -> None
            | spans -> Some (sum_ns spans))
          rs
      in
      row sh
        ~key:[ W.profile_name profile; pname target.preset ^ "/" ^ target.path ]
        ~total:s
        ~phases:(List.map (fun l -> (l, Imk_util.Stats.summarize (phase_sums l))) labels)
        [
          string_of_int runs; string_of_int t.ok;
          string_of_int t.n_recovered; string_of_int t.failed;
          n_events (function F.Breaker_short_circuit _ -> true | _ -> false);
          string_of_int t.silent; string_of_int unrec;
          n_events (function F.Retried _ -> true | _ -> false);
          n_events (function F.Deadline_aborted _ -> true | _ -> false);
          n_events (function F.Fell_back_to_cold_boot _ -> true | _ -> false);
          string_of_int trips;
          (match
             List.rev_map
               (fun (r : S.report) -> sum_ns r.S.recovery)
               (List.filter recovered rs)
           with
          | [] -> "-"
          | l -> msv (ms (Imk_util.Stats.mean l)));
          msv (ms s.Imk_util.Stats.p50);
          msv (ms s.Imk_util.Stats.p99);
        ];
      unrecovered_total := !unrecovered_total + unrec)
    sweep results;
  let t = tally (List.concat_map fst results) in
  let soundness =
    soundness t ~noun:"fault-laden runs"
      ~pass:
        (Printf.sprintf
           "zero silent successes across %d fault-laden runs — every armed \
            fault surfaced as a typed failure or a recovery event"
           t.armed)
  in
  let recovery =
    verdict "recovery" (!unrecovered_total = 0)
      (if !unrecovered_total = 0 then
         "zero unrecovered recoverable faults: transients, deadline overruns, \
          bad relocs and snapshot corruption all ended recovered or as an \
          accounted degradation (retry budget dry, breaker open)"
       else
         Printf.sprintf
           "UNRECOVERED: %d recoverable faults ended as failures with no \
            accounted degradation — supervision policy bug"
           !unrecovered_total)
  in
  let weather_note =
    match (!calm_ns, !storm_ns) with
    | [], _ | _, [] -> []
    | c, st ->
        let cs = Imk_util.Stats.summarize c
        and ss = Imk_util.Stats.summarize st in
        [
          Printf.sprintf
            "storm vs calm: p50 %.1f ms vs %.1f ms (%.2fx), p99 %.1f ms vs \
             %.1f ms (%.2fx) — the tail is where the weather lives"
            (ms ss.Imk_util.Stats.p50) (ms cs.Imk_util.Stats.p50)
            (ss.Imk_util.Stats.p50 /. cs.Imk_util.Stats.p50)
            (ms ss.Imk_util.Stats.p99) (ms cs.Imk_util.Stats.p99)
            (ss.Imk_util.Stats.p99 /. cs.Imk_util.Stats.p99);
        ]
  in
  report sh ~verdicts:[ soundness; recovery ] ~id:"resilience"
    ~title:"Resilience: weather x preset x boot path under fleet supervision"
    ((soundness.detail :: recovery.detail :: weather_note)
    @ [
        "recovery is charged and itemized: every report's labelled \
         recovery intervals sum to total_ns minus the successful attempt \
         (checked at report construction)";
      ])

let diffcheck ?(runs = 20) ws =
  (* Differential-oracle campaign (DESIGN.md §8): sweep the kernel
     matrix through the Imk_check catalogue, one point per run with a
     run-pure seed, fanned over --jobs. Images are built once per
     template on the calling domain (Workspace.built's table is not
     thread-safe and diffcheck builds its own envs anyway); each
     comparison instantiates a private disk and cache, so the table and
     telemetry are bit-identical for any --jobs value. The run's
     [mutate] plants one sensitivity fault per mutable oracle; each must
     be caught. *)
  let module O = Imk_check.Oracle in
  let module P = Imk_check.Point in
  let mutate = (Workspace.run_config ws).Workspace.mutate in
  let scale = Workspace.scale ws in
  let templates =
    List.map
      (fun (p : P.t) ->
        { p with
          P.functions =
            (Workspace.config ws p.P.preset p.P.variant).Config.functions })
      (P.matrix ~seed:0L ~functions:None)
  in
  (* only the templates the run count will actually cycle through get
     built; indexing by [i mod n_used] equals [i mod n_templates] in
     both the runs < n and runs >= n cases *)
  let n_used = min runs (List.length templates) in
  let images =
    Array.init n_used (fun i ->
        let tpl = List.nth templates i in
        (tpl, Imk_check.Env.build ~scale tpl))
  in
  let oracles = O.catalogue ~mutate in
  let per_run =
    Campaign.map ~jobs:(jobs ws) ~tasks:runs (fun i ->
        let tpl, imgs = images.(i mod n_used) in
        let point = { tpl with P.seed = Boot_runner.run_seed (i + 1) } in
        List.map (fun (o : O.t) -> (o.O.id, point, o.O.run imgs point)) oracles)
  in
  (* jobs-1 ≡ jobs-N: boot_many's rows must be bit-identical for any
     fan-out. Runs on the calling domain — boot_many does its own
     fan-out — and compares the two telemetry rows exactly, with the
     same comparator as bench's --baseline gate. *)
  let fan = 4 in
  let jobs_point, jobs_report =
    let tpl, imgs =
      let is_rep ((p : P.t), _) =
        p.P.preset = Config.Aws && p.P.variant = Config.Kaslr
        && p.P.codec = "lz4"
      in
      match Array.find_opt is_rep images with
      | Some x -> x
      | None -> images.(0)
    in
    let point = { tpl with P.seed = Boot_runner.run_seed 1 } in
    let report =
      O.of_run
        (fun imgs point ~note:_ ->
          let env = Imk_check.Env.instantiate imgs in
          let vm = Imk_check.Env.direct_config env point in
          let stats_at jobs =
            Boot_runner.boot_many ~warmups:2 ~jobs ?tap:(tap ws) ~runs:5
              ~cache:env.Imk_check.Env.cache vm
          in
          let rows jobs = [ stats_row "boot_many" (stats_at jobs) ] in
          match Telemetry.diff_rows ~baseline:(rows 1) ~current:(rows fan) with
          | [] -> O.Pass
          | d :: _ -> O.Divergence d)
        imgs point
    in
    (point, report)
  in
  (* aggregation, in run order: each oracle's (point, report) list, the
     jobs row last *)
  let by_oracle =
    List.map
      (fun (o : O.t) ->
        ( o.O.id,
          List.concat_map
            (List.filter_map (fun (id, p, r) ->
                 if id = o.O.id then Some (p, r) else None))
            (Array.to_list per_run) ))
      oracles
    @ [ (Printf.sprintf "jobs-1=%d" fan, [ (jobs_point, jobs_report) ]) ]
  in
  let diverged (_, (r : O.report)) =
    match r.O.outcome with O.Pass -> false | O.Divergence _ -> true
  in
  (* a row per oracle, the jobs row last; its telemetry is the virtual
     totals of every boot the oracle's comparisons ran, with per-boot-label
     distributions as phases (the jobs row's comparison notes no boots) *)
  let sh =
    sheet [ "oracle"; "comparisons"; "pass"; "divergent"; "first divergence" ]
  in
  List.iter
    (fun (id, reports) ->
      let n = List.length reports and divergent = List.filter diverged reports in
      let boots = List.concat_map (fun (_, (r : O.report)) -> r.O.boot_ns) reports in
      let summarize ns = Imk_util.Stats.summarize (List.map float_of_int ns) in
      let boots_of lbl =
        List.filter_map (fun (l, ns) -> if l = lbl then Some ns else None) boots
      in
      row sh ~key:[ id ]
        ?total:(if boots = [] then None else Some (summarize (List.map snd boots)))
        ~phases:
          (List.map
             (fun lbl -> (lbl, summarize (boots_of lbl)))
             (distinct (List.map fst boots)))
        [
          string_of_int n;
          string_of_int (n - List.length divergent);
          string_of_int (List.length divergent);
          (match divergent with
          | (p, { O.outcome = O.Divergence d; _ }) :: _ ->
              let s = P.name p ^ ": " ^ d in
              if String.length s <= 72 then s else String.sub s 0 69 ^ "..."
          | _ -> "-");
        ])
    by_oracle;
  let comparisons =
    List.fold_left (fun a (_, rs) -> a + List.length rs) 0 by_oracle
  in
  let divergent_total =
    List.fold_left (fun a (_, rs) -> a + count diverged rs) 0 by_oracle
  in
  (* the planted-fault protocol: --mutate must be CAUGHT by every
     mutating oracle, and each one's first caught point shrinks to a
     ready-to-paste reproducer *)
  let mutants =
    [
      ("cross-path", "off-by-one", fun () -> O.cross_path ~mutate:true ());
      ( "event-core-solo",
        "event reordering",
        fun () -> O.event_core_solo ~mutate:true () );
    ]
  in
  let caught_verdicts =
    if not mutate then []
    else
      List.map
        (fun (oid, fault, mk) ->
          let compared = List.assoc oid by_oracle in
          let caught = List.filter diverged compared in
          let n_caught = List.length caught and n = List.length compared in
          ( verdict ("caught: " ^ oid) (n_caught = n)
              (if n_caught < n then
                 Printf.sprintf
                   "MUTATE NOT CAUGHT: the planted %s passed %d/%d %s \
                    comparisons — the oracle cannot fail and is not evidence"
                   fault (n - n_caught) n oid
               else if n = 0 then
                 Printf.sprintf "mutate: no %s comparisons ran" oid
               else
                 Printf.sprintf
                   "mutate: planted %s caught in %d/%d %s comparisons" fault
                   n_caught n oid),
            match caught with
            | (p0, _) :: _ when n_caught = n ->
                let mutant : O.t = mk () in
                let still_fails q =
                  match
                    (mutant.O.run (Imk_check.Env.build ~scale q) q).O.outcome
                  with
                  | O.Divergence _ -> true
                  | O.Pass -> false
                in
                String.split_on_char '\n'
                  (Imk_check.Shrink.report (Imk_check.Shrink.minimize still_fails p0))
            | _ -> [] ))
        mutants
  in
  let agreement =
    if mutate then
      let mutant_ids = List.map (fun (oid, _, _) -> oid) mutants in
      let outside =
        count
          (fun (id, rs) ->
            (not (List.mem id mutant_ids)) && List.exists diverged rs)
          by_oracle
      in
      verdict "no divergence outside the plants" (outside = 0)
        (if outside > 0 then
           Printf.sprintf
             "DIVERGENCE: %d comparisons outside the mutated oracles disagreed \
              under --mutate — see table"
             outside
         else
           Printf.sprintf
             "%d comparisons; zero divergences outside cross-path and \
              event-core-solo (which are expected to diverge under --mutate)"
             comparisons)
    else
      verdict "no divergence" (divergent_total = 0)
        (if divergent_total = 0 then
           Printf.sprintf
             "zero divergences across %d comparisons — monitor/loader layouts, \
              event-core solo traces, plan-cache traces, snapshot clones, arena \
              recycling and jobs fan-out all agree bit for bit"
             comparisons
         else
           Printf.sprintf "DIVERGENCE: %d of %d comparisons disagreed — see table"
             divergent_total comparisons)
  in
  report sh
    ~verdicts:(agreement :: List.map fst caught_verdicts)
    ~id:"diffcheck" ~title:"Differential boot oracles: cross-path equivalence campaign"
    (agreement.detail
    :: List.concat_map (fun (v, repro) -> v.detail :: repro) caught_verdicts)

(* ---------- Fleet serving campaign (§7 economics) ---------- *)

(* the per-preset calibration behind the fleet simulator: real supervised
   boots, real snapshot restores and real fault-laden supervised boots,
   whose virtual totals become the serving simulator's cost samples *)
type fleet_cal = {
  f_cold : int array;  (* supervised cold boots, total ns *)
  f_warm : int array;  (* supervised snapshot restores, total ns *)
  f_fault : int array;  (* supervised fault-laden boots, recovery included *)
}

let fleet ?(runs = 10) ws =
  (* Sweep preset x arrival model x weather profile through the serving
     simulator (Imk_fleet): a virtual-time request stream scheduled onto
     a bounded warm pool with a bounded admission queue. Calibration is
     three supervised cells per preset (boots, snapshot restores and
     fault-laden boots) fanned out like every supervised campaign; every
     serving cell's simulation is then a pure function of its
     calibration arrays, the cell index and the request count, so the
     table and telemetry are bit-identical for any --jobs value —
     parallelism lives between cells. *)
  let module W = Imk_fault.Weather in
  let module A = Imk_fleet.Arrival in
  let module Sim = Imk_fleet.Sim in
  let requests =
    Option.value ~default:50_000 (Workspace.run_config ws).Workspace.requests
  in
  let cal_runs = max 4 runs in
  let seams = [ I.Transient_init 1; I.Truncate_relocs; I.Flip_relocs_magic ] in
  let cal_cells preset =
    let direct = direct_target ws preset in
    let cell target conditions =
      { target; policy = None; runs = cal_runs; conditions }
    in
    [
      cell direct (fun _ -> clean);
      (* the warm tier restores from one snapshot of this preset *)
      cell (snapshot_target ws preset) (fun _ -> clean);
      cell direct (fun run ->
          {
            fault = Some (Seam (List.nth seams ((run - 1) mod List.length seams)));
            fault_seed = fault_seed run;
            cold = false;
          });
    ]
  in
  let cal = run_cells ws (List.concat_map cal_cells presets) in
  let costs ?what rs =
    Array.of_list
      (List.map
         (fun (_, (r : S.report)) ->
           match (what, r.S.outcome) with
           | Some what, Error f ->
               invalid_arg ("fleet: " ^ what ^ " calibration failed: " ^ F.describe f)
           | _ -> r.S.total_ns)
         rs)
  in
  let rec per_preset = function
    | (cold, _) :: (warm, _) :: (fault, _) :: rest ->
        {
          f_cold = costs ~what:"cold boot" cold;
          f_warm = costs ~what:"warm restore" warm;
          f_fault = costs fault;
        }
        :: per_preset rest
    | _ -> []
  in
  let cals = List.combine presets (per_preset cal) in
  (* a warm pool smaller than the server count: under concurrency some
     admissions always miss, so the hit rate, eviction count and layout
     churn stay live signals instead of saturating at 100% *)
  let servers = 4 and pool_capacity = 2 and queue_capacity = 16 in
  let mean_ns a = Imk_util.Stats.mean (List.map float_of_int (Array.to_list a)) in
  let models cal =
    (* offered load sized against the pool-warmed steady state: at the
       target ~80% hit rate mean service is a warm/cold blend; 85% of
       server capacity at that service time keeps the cell busy without
       saturating it under calm weather, and the bursty model swings
       around the same mean (quiet halves, bursts 2.5x) *)
    let m_warm = mean_ns cal.f_warm and m_cold = mean_ns cal.f_cold in
    let m_svc = (0.8 *. m_warm) +. (0.2 *. m_cold) in
    let lambda = 0.85 *. float_of_int servers /. (m_svc /. 1e9) in
    [
      A.Poisson { rate_per_s = lambda };
      A.Bursty
        {
          base_per_s = lambda *. 0.5;
          burst_per_s = lambda *. 2.5;
          burst_len = 64;
          period = 256;
        };
    ]
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun (preset, cal) ->
           List.concat_map
             (fun model ->
               List.map
                 (fun profile -> (preset, cal, model, profile))
                 W.all_profiles)
             (models cal))
         cals)
  in
  let reports =
    Campaign.map ~jobs:(jobs ws) ~tasks:(Array.length cells) (fun ti ->
        let _, cal, model, profile = cells.(ti) in
        (* calm cells carry no weather value at all: the calm forecast
           is constant (no faults, no cold), so skipping the draws is
           observationally identical and keeps the control rows cheap *)
        let weather =
          match profile with
          | W.Calm -> None
          | W.Flaky | W.Storm -> Some (W.make profile ~seed:(1 + ti))
        in
        Sim.run
          {
            Sim.arrival = model;
            seed = 7 * (ti + 1);
            requests;
            servers;
            pool_capacity;
            queue_capacity;
            cold_ns = cal.f_cold;
            warm_ns = cal.f_warm;
            fault_ns = cal.f_fault;
            weather;
            seams;
          })
  in
  (* sequential aggregation, in cell order *)
  let sh =
    sheet
      [
        "kernel"; "arrival"; "weather"; "requests"; "served"; "dropped";
        "hit %"; "cold p50 ms"; "cold p99"; "warm p50"; "warm p99";
        "wait p99"; "depth p99"; "layouts";
      ]
  in
  let pctl (s : Imk_util.Stats.summary) f =
    if s.Imk_util.Stats.n = 0 then "-" else f s
  in
  let p50 s = msn s.Imk_util.Stats.p50 and p99 s = msn s.Imk_util.Stats.p99 in
  Array.iteri
    (fun ti (preset, _, model, profile) ->
      let r = reports.(ti) in
      (* no sojourn summary when nothing completed *)
      let total = if r.Sim.completed > 0 then Some r.Sim.sojourn else None in
      row sh
        ~key:[ pname preset; A.model_name model; W.profile_name profile ]
        ?total
        ~phases:
          (List.filter
             (fun (_, (s : Imk_util.Stats.summary)) -> s.Imk_util.Stats.n > 0)
             [
               ("cold-start", r.Sim.cold_service);
               ("warm-start", r.Sim.warm_service);
               ("fault-start", r.Sim.fault_service);
               ("queue-wait", r.Sim.queue_wait);
             ])
        [
          string_of_int r.Sim.requests;
          string_of_int r.Sim.completed;
          string_of_int r.Sim.dropped;
          Printf.sprintf "%.1f" (100. *. r.Sim.hit_rate);
          pctl r.Sim.cold_service p50;
          pctl r.Sim.cold_service p99;
          pctl r.Sim.warm_service p50;
          pctl r.Sim.warm_service p99;
          pctl r.Sim.queue_wait p99;
          pctl r.Sim.queue_depth (fun s -> Printf.sprintf "%.0f" s.Imk_util.Stats.p99);
          string_of_int r.Sim.distinct_layouts;
        ])
    cells;
  let t = tally (List.concat_map fst cal) in
  let soundness =
    soundness t ~noun:"fault-laden calibration boots"
      ~pass:
        (Printf.sprintf
           "zero silent successes across %d fault-laden calibration boots — \
            every fault-start cost in the simulator includes a typed, \
            supervised recovery"
           t.armed)
  in
  let reports = Array.to_list reports in
  let p50s (pick : Sim.report -> Imk_util.Stats.summary) =
    List.filter_map
      (fun r ->
        let s = pick r in
        if s.Imk_util.Stats.n = 0 then None else Some s.Imk_util.Stats.p50)
      reports
  in
  let economics_note =
    let colds = p50s (fun r -> r.Sim.cold_service) in
    let warms = p50s (fun r -> r.Sim.warm_service) in
    let hits =
      List.filter_map
        (fun (r : Sim.report) ->
          if r.Sim.pool_hits + r.Sim.pool_misses = 0 then None
          else Some r.Sim.hit_rate)
        reports
    in
    match (colds, warms, hits) with
    | [], _, _ | _, [], _ | _, _, [] -> []
    | _ ->
        [
          (* stated as measured, no baked-in direction: the cold/warm
             gap is what a zygote tier bridges and in-monitor KASLR
             shrinks, but smoke-sized kernels (--functions) can invert
             it — fixed restore costs dominate tiny images *)
          Printf.sprintf
            "pool economics: warm restore p50 %.1f ms vs cold boot p50 %.1f \
             ms (cold/warm %.2fx) at a %.0f%% mean hit rate"
            (Imk_util.Units.ns_float_to_ms (Imk_util.Stats.mean warms))
            (Imk_util.Units.ns_float_to_ms (Imk_util.Stats.mean colds))
            (Imk_util.Stats.mean colds /. Imk_util.Stats.mean warms)
            (100. *. Imk_util.Stats.mean hits);
        ]
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 in
  let per p f =
    sum
      (fun ((_, _, _, q), r) -> if q = p then f r else 0)
      (List.combine (Array.to_list cells) reports)
  in
  let drops p = per p (fun r -> r.Sim.dropped) in
  let faults p = per p (fun r -> r.Sim.fault_starts) in
  report sh ~verdicts:[ soundness ] ~id:"fleet"
    ~title:
      (Printf.sprintf
         "Fleet serving: %d requests/cell over warm pools (%d slots, pool %d, \
          queue %d)"
         requests servers pool_capacity queue_capacity)
    ((soundness.detail :: economics_note)
    @ [
        Printf.sprintf
          "weather and the queue: drops calm/flaky/storm = %d/%d/%d, \
           fault-laden starts %d/%d/%d — faults hold servers through \
           recovery and forecast-forced cold starts bypass the warm pool, \
           so weather shows in serving SLOs, not boot means"
          (drops W.Calm) (drops W.Flaky) (drops W.Storm) (faults W.Calm)
          (faults W.Flaky) (faults W.Storm);
        Printf.sprintf
          "layout diversity: %d requests served from %d distinct layouts — \
           warm reuse freezes a layout for its pool lifetime; only (cheap, \
           in-monitor-randomized) cold boots re-diversify the fleet"
          (sum (fun r -> r.Sim.completed) reports)
          (sum (fun r -> r.Sim.distinct_layouts) reports);
      ])

let registry =
  [
    ("table1", table1); ("fig3", fig3); ("fig4", fig4); ("fig5", fig5);
    ("fig6", fig6); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("qemu", qemu_check); ("throughput", throughput); ("security", security);
    ("faults", faults); ("resilience", resilience); ("diffcheck", diffcheck);
    ("fleet", fleet);
    ("ablation-kallsyms", ablation_kallsyms); ("ablation-orc", ablation_orc);
    ("ablation-page-sharing", ablation_page_sharing);
    ("ablation-rerando", ablation_rerando); ("ablation-zygote", ablation_zygote);
    ("ablation-unikernel", ablation_unikernel);
    ("ablation-devices", ablation_devices);
  ]

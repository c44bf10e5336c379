(* Serverless pool: the workload that motivates the paper. A function-as-
   a-service host boots a fresh microVM per invocation; every instance
   must come up fast AND with its own randomized layout. This example
   boots a pool of lambdas under each randomization scheme and reports:

   - invocation throughput (boots/second of host CPU budget, from the
     virtual clock), showing what (FG)KASLR costs the platform;
   - layout diversity across instances (all different — each invocation
     gets fresh randomization, fixing the zygote-reuse weakness discussed
     in §7);
   - the page-sharing trade-off of §6: how many guest pages the host
     could merge across instances, with and without a shared seed.

   Run with:  dune exec examples/serverless_pool.exe *)

open Imk_monitor

let pool_size = 12

let boot_lambda ws ~variant ~seed =
  Imk_harness.Workspace.warm_all ws;
  let vm =
    Imk_harness.Workspace.direct_vm ws Imk_kernel.Config.Aws variant
      ~rando:(Vm_config.rando_of_variant variant)
      ~kallsyms:Vm_config.Kallsyms_deferred (* lambdas never read kallsyms *)
      ()
  in
  Imk_harness.Boot_runner.boot_once ~jitter:false ~seed
    ~cache:(Imk_harness.Workspace.cache ws)
    vm

(* §6's page-sharing measure over the first two boots of a pool: how many
   of the first guest's kernel pages the host could merge with the
   second's *)
let sharable pool =
  let window (_, r) = (r.Vmm.mem, r.Vmm.params.Imk_guest.Boot_params.phys_load) in
  Imk_memory.Guest_mem.identical_kernel_pages
    (window (List.nth pool 0))
    (window (List.nth pool 1))

let run_pool ws ~name ~variant ~shared_seed =
  let results =
    List.init pool_size (fun i ->
        let seed =
          if shared_seed then 7777L else Int64.of_int (1000 + (i * 37))
        in
        boot_lambda ws ~variant ~seed)
  in
  let totals = List.map (fun (t, _) -> Imk_vclock.Trace.total t) results in
  let mean_ns =
    List.fold_left ( + ) 0 totals / List.length totals
  in
  let bases =
    List.sort_uniq compare
      (List.map
         (fun (_, r) -> r.Vmm.params.Imk_guest.Boot_params.virt_base)
         results)
  in
  let throughput = 1e9 /. float_of_int mean_ns in
  Printf.printf
    "%-26s mean boot %-10s -> %5.1f cold starts/s/core   %2d distinct layouts\n"
    name
    (Imk_util.Units.ms_string mean_ns)
    throughput (List.length bases);
  results

let () =
  let ws = Imk_harness.Workspace.create () in
  Printf.printf "serverless pool: %d lambda cold starts per scheme (aws kernel)\n\n"
    pool_size;
  let _ =
    run_pool ws ~name:"nokaslr (stock microVM)" ~variant:Imk_kernel.Config.Nokaslr
      ~shared_seed:false
  in
  let kaslr =
    run_pool ws ~name:"in-monitor KASLR" ~variant:Imk_kernel.Config.Kaslr
      ~shared_seed:false
  in
  let fg =
    run_pool ws ~name:"in-monitor FGKASLR" ~variant:Imk_kernel.Config.Fgkaslr
      ~shared_seed:false
  in
  Printf.printf
    "\nevery randomized instance got its own layout — unlike zygote \
     snapshot restores,\nwhich clone one layout across invocations (§7).\n";

  (* §6: memory density. Can the host still merge pages across VMs? *)
  Printf.printf "\npage-sharing across two FGKASLR lambdas (§6 memory density):\n";
  Printf.printf "  distinct seeds : %5.1f%% of kernel pages identical\n"
    (sharable fg);
  let grouped =
    run_pool ws ~name:"FGKASLR, host-grouped seed" ~variant:Imk_kernel.Config.Fgkaslr
      ~shared_seed:true
  in
  Printf.printf "  shared seed    : %5.1f%% of kernel pages identical\n"
    (sharable grouped);
  Printf.printf
    "\nin-monitor randomization lets the host trade diversity for density \
     by seed grouping —\nimpossible when guests self-randomize.\n";
  ignore kaslr

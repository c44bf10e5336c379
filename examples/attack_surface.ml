(* Attack surface: what a single kernel-pointer leak is worth under each
   randomization scheme — the security story of §3.1 and §4.1 made
   concrete against real booted guests.

   The attacker model: a compromised container process atop the guest
   kernel (W^X + SMEP, so code reuse only), holding the distribution
   kernel image (link-time layout) and exactly one leaked address.

   Run with:  dune exec examples/attack_surface.exe *)

open Imk_monitor

let () =
  let ws = Imk_harness.Workspace.create () in
  let preset = Imk_kernel.Config.Aws in
  Printf.printf "one leaked kernel pointer vs. three randomization schemes\n\n";

  (* entropy on paper first *)
  let built = Imk_harness.Workspace.built ws preset Imk_kernel.Config.Kaslr in
  let memsz =
    Imk_kernel.Config.modeled_of_actual built.Imk_kernel.Image.config
      (Imk_randomize.Loadelf.image_memsz built.Imk_kernel.Image.elf)
  in
  let fns =
    Imk_kernel.Config.modeled_of_actual built.Imk_kernel.Image.config
      built.Imk_kernel.Image.config.Imk_kernel.Config.functions
  in
  let k = Imk_security.Entropy_analysis.kaslr ~image_memsz:memsz in
  let f = Imk_security.Entropy_analysis.fgkaslr ~image_memsz:memsz ~functions:fns in
  Printf.printf "entropy at paper scale: KASLR %.1f bits (%d bases); FGKASLR \
                 adds %.0f bits of permutation\n\n"
    k.Imk_security.Entropy_analysis.base_bits
    k.Imk_security.Entropy_analysis.base_slots
    f.Imk_security.Entropy_analysis.permutation_bits;

  List.iter
    (fun variant ->
      let name = Imk_kernel.Config.variant_name variant in
      Imk_harness.Workspace.warm_all ws;
      let vm =
        Imk_harness.Workspace.direct_vm ws preset variant
          ~rando:(Vm_config.rando_of_variant variant) ()
      in
      let _, r =
        Imk_harness.Boot_runner.boot_once ~jitter:false ~seed:90125L
          ~cache:(Imk_harness.Workspace.cache ws)
          vm
      in
      let built = Imk_harness.Workspace.built ws preset variant in
      let rng = Imk_entropy.Prng.create ~seed:5L in
      let n = Array.length built.Imk_kernel.Image.fn_va in
      let trials =
        List.init 8 (fun _ ->
            let leaked_fn = Imk_entropy.Prng.next_int rng n in
            Imk_security.Attack.leak_and_locate ~mem:r.Vmm.mem
              ~params:r.Vmm.params ~link_fn_va:built.Imk_kernel.Image.fn_va
              ~leaked_fn ~scheme:name)
      in
      let mean_frac =
        Imk_util.Stats.mean
          (List.map
             (fun o -> o.Imk_security.Attack.gadgets_exposed_fraction)
             trials)
      in
      let sample = List.hd trials in
      Printf.printf "%-8s leak of fn_%05d exposes %6.1f%% of the other %d \
                     kernel functions\n"
        name sample.Imk_security.Attack.leaked_fn (100. *. mean_frac) (n - 1);
      (* blind probing as a fallback for the attacker *)
      let probe_rng = Imk_entropy.Prng.create ~seed:6L in
      (match
         Imk_security.Attack.probe_until_found ~mem:r.Vmm.mem
           ~params:r.Vmm.params ~rng:probe_rng ~target_fn:(n / 2)
           ~max_probes:20_000
       with
      | Some probes ->
          Printf.printf
            "         blind probing found a target gadget after %d probes\n"
            probes
      | None ->
          Printf.printf
            "         blind probing failed within 20000 crash-risking probes\n"))
    Imk_kernel.Config.all_variants;

  Printf.printf
    "\ntakeaway (paper §3.1): coarse KASLR collapses under one leak — the \
     whole text shares\none offset; FGKASLR reduces a leak's value to the \
     single leaked function.\n"

(* Tests for Imk_security: entropy accounting and the leak-and-locate
   attack's core result — a single leak defeats KASLR but not FGKASLR. *)

open Imk_monitor

let check = Alcotest.check
let int = Alcotest.int

let test_entropy_nokaslr () =
  let r = Imk_security.Entropy_analysis.nokaslr in
  check int "one slot" 1 r.Imk_security.Entropy_analysis.base_slots;
  check (Alcotest.float 1e-9) "zero bits" 0. r.Imk_security.Entropy_analysis.total_bits

let test_entropy_kaslr () =
  let r = Imk_security.Entropy_analysis.kaslr ~image_memsz:(16 * 1024 * 1024) in
  check int "497 slots" 497 r.Imk_security.Entropy_analysis.base_slots;
  check Alcotest.bool "about 9 bits" true
    (abs_float (r.Imk_security.Entropy_analysis.base_bits -. 8.957) < 0.01);
  check (Alcotest.float 1e-9) "no permutation bits" 0.
    r.Imk_security.Entropy_analysis.permutation_bits

let test_entropy_fgkaslr () =
  let r =
    Imk_security.Entropy_analysis.fgkaslr ~image_memsz:(16 * 1024 * 1024)
      ~functions:1000
  in
  check Alcotest.bool "permutation dominates" true
    (r.Imk_security.Entropy_analysis.permutation_bits
    > 100. *. r.Imk_security.Entropy_analysis.base_bits);
  check (Alcotest.float 1e-6) "total = base + perm"
    (r.Imk_security.Entropy_analysis.base_bits
    +. r.Imk_security.Entropy_analysis.permutation_bits)
    r.Imk_security.Entropy_analysis.total_bits

let test_entropy_grows_with_smaller_image () =
  let small = Imk_security.Entropy_analysis.kaslr ~image_memsz:(4 * 1024 * 1024) in
  let large = Imk_security.Entropy_analysis.kaslr ~image_memsz:(256 * 1024 * 1024) in
  check Alcotest.bool "smaller image, more slots" true
    (small.Imk_security.Entropy_analysis.base_slots
    > large.Imk_security.Entropy_analysis.base_slots)

(* Linux's own slot count (arch/x86/boot/compressed/kaslr.c,
   find_random_virt_addr), with its literals rather than Addr's:
   KERNEL_IMAGE_SIZE = 1 GiB, minimum = CONFIG_PHYSICAL_START = 16 MiB,
   CONFIG_PHYSICAL_ALIGN = 2 MiB *)
let linux_virt_slots image_size =
  1 + ((0x40000000 - 0x1000000 - image_size) / 0x200000)

let qcheck_kaslr_slots_match_linux =
  let largest = 0x40000000 - 0x1000000 in
  let sizes =
    QCheck.make ~print:(Printf.sprintf "image_size=%#x")
      QCheck.Gen.(
        oneof [ int_range 1 largest; oneofl [ 1; 0x200000; largest - 1; largest ] ])
  in
  QCheck.Test.make ~count:1000
    ~name:"kaslr: base slots = Linux's find_random_virt_addr count, < 505"
    sizes
    (fun image_memsz ->
      let linux = linux_virt_slots image_memsz in
      Imk_randomize.Kaslr.virtual_slots ~image_memsz = linux
      && (Imk_security.Entropy_analysis.kaslr ~image_memsz)
           .Imk_security.Entropy_analysis.base_slots
         = linux
      && linux < 505)

let attack_fraction variant rando ~seed =
  let env = Testkit.make_env ~functions:120 ~variant () in
  let _, r = Testkit.boot env ~rando ~seed in
  let rng = Imk_entropy.Prng.create ~seed in
  let outcomes =
    List.init 5 (fun _ ->
        let leaked_fn = Imk_entropy.Prng.next_int rng 120 in
        Imk_security.Attack.leak_and_locate ~mem:r.Vmm.mem ~params:r.Vmm.params
          ~link_fn_va:env.Testkit.built.Imk_kernel.Image.fn_va ~leaked_fn
          ~scheme:"test")
  in
  Imk_util.Stats.mean
    (List.map
       (fun o -> o.Imk_security.Attack.gadgets_exposed_fraction)
       outcomes)

let test_attack_nokaslr_full_exposure () =
  let f = attack_fraction Imk_kernel.Config.Nokaslr Vm_config.Rando_off ~seed:1L in
  check (Alcotest.float 1e-9) "everything exposed" 1.0 f

let test_attack_kaslr_full_exposure () =
  (* coarse KASLR: one leak rebases the whole kernel (§3.1) *)
  let f = attack_fraction Imk_kernel.Config.Kaslr Vm_config.Rando_kaslr ~seed:2L in
  check (Alcotest.float 1e-9) "everything exposed" 1.0 f

let test_attack_fgkaslr_minimal_exposure () =
  let f =
    attack_fraction Imk_kernel.Config.Fgkaslr Vm_config.Rando_fgkaslr ~seed:3L
  in
  check Alcotest.bool "almost nothing exposed" true (f < 0.05)

let test_attack_outcome_fields () =
  let env = Testkit.make_env ~functions:50 () in
  let _, r = Testkit.boot env in
  let o =
    Imk_security.Attack.leak_and_locate ~mem:r.Vmm.mem ~params:r.Vmm.params
      ~link_fn_va:env.Testkit.built.Imk_kernel.Image.fn_va ~leaked_fn:7
      ~scheme:"kaslr"
  in
  check int "n" 50 o.Imk_security.Attack.n_functions;
  check int "leak id" 7 o.Imk_security.Attack.leaked_fn;
  check Alcotest.string "scheme" "kaslr" o.Imk_security.Attack.scheme

let test_attack_bad_leak_rejected () =
  let env = Testkit.make_env ~functions:50 () in
  let _, r = Testkit.boot env in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Attack.leak_and_locate: leaked_fn out of range")
    (fun () ->
      ignore
        (Imk_security.Attack.leak_and_locate ~mem:r.Vmm.mem ~params:r.Vmm.params
           ~link_fn_va:env.Testkit.built.Imk_kernel.Image.fn_va ~leaked_fn:999
           ~scheme:"x"))

let test_probe_budget_exhaustion () =
  (* blind probing in the 1 GiB window at 16-byte granularity is
     hopeless with a small budget — the FGKASLR story *)
  let env = Testkit.make_env ~functions:50 ~variant:Imk_kernel.Config.Fgkaslr () in
  let _, r = Testkit.boot env ~rando:Vm_config.Rando_fgkaslr in
  let rng = Imk_entropy.Prng.create ~seed:4L in
  check (Alcotest.option int) "no hit in 1000 probes" None
    (Imk_security.Attack.probe_until_found ~mem:r.Vmm.mem ~params:r.Vmm.params
       ~rng ~target_fn:10 ~max_probes:1000)

(* --- uniformity --- *)

let test_chi_square_uniform_data () =
  (* perfectly uniform counts give statistic 0 *)
  check (Alcotest.float 1e-9) "zero" 0.
    (Imk_security.Uniformity.chi_square ~observed:(Array.make 10 100))

let test_chi_square_skew_detected () =
  let observed = Array.make 10 100 in
  observed.(0) <- 1000;
  check Alcotest.bool "large statistic" true
    (Imk_security.Uniformity.chi_square ~observed
    > Imk_security.Uniformity.critical_value ~df:9 ~alpha:0.001)

let test_critical_value_sane () =
  (* chi2 0.99 quantile at df=100 is ≈135.8 *)
  let v = Imk_security.Uniformity.critical_value ~df:100 ~alpha:0.01 in
  check Alcotest.bool "near 135.8" true (abs_float (v -. 135.8) < 2.)

let test_offset_selection_uniform () =
  let v =
    Imk_security.Uniformity.test_virtual_offsets
      ~image_memsz:(16 * 1024 * 1024) ~draws:20_000 ~seed:7L
  in
  check Alcotest.bool "uniform at 1%" true v.Imk_security.Uniformity.uniform;
  check int "497 slots" 497 v.Imk_security.Uniformity.slots

let test_permutation_positions_uniform () =
  let v =
    Imk_security.Uniformity.test_permutation_positions ~sections:128
      ~draws:20_000 ~seed:8L
  in
  check Alcotest.bool "uniform at 1%" true v.Imk_security.Uniformity.uniform

let test_biased_sampler_caught () =
  (* sanity: a sampler that avoids half the slots must fail the test;
     emulate by folding draws into half the bins *)
  let observed = Array.make 100 0 in
  let rng = Imk_entropy.Prng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let slot = Imk_entropy.Prng.next_int rng 50 in
    observed.(slot) <- observed.(slot) + 1
  done;
  check Alcotest.bool "bias detected" true
    (Imk_security.Uniformity.chi_square ~observed
    > Imk_security.Uniformity.critical_value ~df:99 ~alpha:0.01)

let test_permutation_matrix_uniform () =
  (* the whole element × position table, not just where element 0 lands:
     a bias anywhere in the shuffle shows up here *)
  let v =
    Imk_security.Uniformity.test_permutation_matrix ~sections:16
      ~draws:2_000 ~seed:9L
  in
  check Alcotest.bool "uniform at 1%" true v.Imk_security.Uniformity.uniform;
  check int "sections^2 cells" 256 v.Imk_security.Uniformity.slots

let test_pool_bits_balanced () =
  (* a stuck bit in either entropy source silently halves KASLR entropy *)
  List.iter
    (fun (name, source) ->
      let v =
        Imk_security.Uniformity.test_pool_bit_balance ~source ~draws:20_000
          ~seed:11L
      in
      check Alcotest.bool (name ^ " bits balanced at 1%") true
        v.Imk_security.Uniformity.uniform)
    [
      ("host-pool", Imk_entropy.Pool.Host_pool);
      ("guest-rdrand", Imk_entropy.Pool.Guest_rdrand);
    ]

let test_stuck_bit_caught () =
  (* sanity for the bit-balance statistic: a source whose top bit is
     always clear must fail decisively *)
  let draws = 20_000 in
  let ones = Array.make 64 (draws / 2) in
  ones.(63) <- 0;
  let half = float_of_int draws /. 2. in
  let statistic =
    Array.fold_left
      (fun acc o ->
        let d = float_of_int o -. half in
        acc +. (2. *. d *. d /. half))
      0. ones
  in
  check Alcotest.bool "stuck bit detected" true
    (statistic > Imk_security.Uniformity.critical_value ~df:64 ~alpha:0.001)

let qcheck_fgkaslr_leak_value_small =
  QCheck.Test.make ~name:"fgkaslr: leaks expose <10% whatever is leaked"
    ~count:8 QCheck.int64
    (fun seed ->
      let env =
        Testkit.make_env ~functions:60 ~variant:Imk_kernel.Config.Fgkaslr ()
      in
      let _, r = Testkit.boot env ~rando:Vm_config.Rando_fgkaslr ~seed in
      let rng = Imk_entropy.Prng.create ~seed in
      let leaked_fn = Imk_entropy.Prng.next_int rng 60 in
      let o =
        Imk_security.Attack.leak_and_locate ~mem:r.Vmm.mem ~params:r.Vmm.params
          ~link_fn_va:env.Testkit.built.Imk_kernel.Image.fn_va ~leaked_fn
          ~scheme:"fg"
      in
      o.Imk_security.Attack.gadgets_exposed_fraction < 0.1)

let () =
  Alcotest.run "imk_security"
    [
      ( "entropy",
        [
          Alcotest.test_case "nokaslr" `Quick test_entropy_nokaslr;
          Alcotest.test_case "kaslr" `Quick test_entropy_kaslr;
          Alcotest.test_case "fgkaslr" `Quick test_entropy_fgkaslr;
          Alcotest.test_case "image size effect" `Quick
            test_entropy_grows_with_smaller_image;
          Testkit.to_alcotest qcheck_kaslr_slots_match_linux;
        ] );
      ( "attack",
        [
          Alcotest.test_case "nokaslr exposure" `Quick
            test_attack_nokaslr_full_exposure;
          Alcotest.test_case "kaslr exposure" `Quick
            test_attack_kaslr_full_exposure;
          Alcotest.test_case "fgkaslr exposure" `Quick
            test_attack_fgkaslr_minimal_exposure;
          Alcotest.test_case "outcome fields" `Quick test_attack_outcome_fields;
          Alcotest.test_case "bad leak" `Quick test_attack_bad_leak_rejected;
          Alcotest.test_case "probe budget" `Quick test_probe_budget_exhaustion;
          Testkit.to_alcotest qcheck_fgkaslr_leak_value_small;
        ] );
      ( "uniformity",
        [
          Alcotest.test_case "chi-square zero" `Quick
            test_chi_square_uniform_data;
          Alcotest.test_case "skew detected" `Quick
            test_chi_square_skew_detected;
          Alcotest.test_case "critical value" `Quick test_critical_value_sane;
          Alcotest.test_case "offsets uniform" `Quick
            test_offset_selection_uniform;
          Alcotest.test_case "shuffle uniform" `Quick
            test_permutation_positions_uniform;
          Alcotest.test_case "biased sampler caught" `Quick
            test_biased_sampler_caught;
          Alcotest.test_case "permutation matrix uniform" `Quick
            test_permutation_matrix_uniform;
          Alcotest.test_case "pool bits balanced" `Quick
            test_pool_bits_balanced;
          Alcotest.test_case "stuck bit caught" `Quick test_stuck_bit_caught;
        ] );
    ]

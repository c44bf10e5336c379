(* Tests for Imk_lebench: workload catalogue, the i-cache locality model's
   key property (KASLR shift = no penalty, shuffle = penalty), and the
   runner's normalization. *)

open Imk_monitor

let check = Alcotest.check
let int = Alcotest.int

let test_workloads_well_formed () =
  check Alcotest.bool "suite nonempty" true (List.length Imk_lebench.Workloads.all >= 15);
  List.iter
    (fun (w : Imk_lebench.Workloads.t) ->
      check Alcotest.bool (w.name ^ " base positive") true (w.base_ns > 0.);
      check Alcotest.bool (w.name ^ " sensitivity in range") true
        (w.icache_sensitivity >= 0. && w.icache_sensitivity <= 1.);
      check Alcotest.bool (w.name ^ " hot fns positive") true (w.hot_fns > 0))
    Imk_lebench.Workloads.all

let test_find () =
  check Alcotest.bool "getpid exists" true
    (Imk_lebench.Workloads.find "getpid" <> None);
  check Alcotest.bool "unknown" true (Imk_lebench.Workloads.find "frobnicate" = None)

let linked_layout n = Array.init n (fun i -> Imk_memory.Addr.link_base + (i * 640))

let test_slowdown_identity_layout () =
  let fn_va = linked_layout 2000 in
  List.iter
    (fun w ->
      check (Alcotest.float 1e-9) (w.Imk_lebench.Workloads.name ^ " no penalty")
        1.0
        (Imk_lebench.Icache.slowdown w ~fn_va))
    Imk_lebench.Workloads.all

let test_slowdown_kaslr_shift_is_free () =
  (* plain KASLR: every function shifted by the same delta -> same
     relative layout -> same slowdown (figure 11's kaslr ≈ 1.0) *)
  let base = linked_layout 2000 in
  let shifted = Array.map (fun v -> v + 0x1260000) base in
  List.iter
    (fun w ->
      check (Alcotest.float 1e-9) w.Imk_lebench.Workloads.name
        (Imk_lebench.Icache.slowdown w ~fn_va:base)
        (Imk_lebench.Icache.slowdown w ~fn_va:shifted))
    Imk_lebench.Workloads.all

let test_slowdown_shuffle_costs () =
  let base = linked_layout 2000 in
  let rng = Imk_entropy.Prng.create ~seed:17L in
  let perm = Imk_entropy.Shuffle.permutation rng 2000 in
  let shuffled = Array.init 2000 (fun i -> base.(perm.(i))) in
  let suite_avg layout =
    let fs =
      List.map
        (fun w -> Imk_lebench.Icache.slowdown w ~fn_va:layout)
        Imk_lebench.Workloads.all
    in
    List.fold_left ( +. ) 0. fs /. float_of_int (List.length fs)
  in
  let avg = suite_avg shuffled in
  check Alcotest.bool "shuffle costs something" true (avg > 1.01);
  check Alcotest.bool "but stays bounded" true (avg < 1.25)

let test_hot_set_deterministic () =
  let w = List.hd Imk_lebench.Workloads.all in
  let a = Imk_lebench.Icache.hot_set w ~n_functions:1000 in
  let b = Imk_lebench.Icache.hot_set w ~n_functions:1000 in
  Alcotest.(check (array int)) "same" a b;
  check int "size" w.Imk_lebench.Workloads.hot_fns (Array.length a)

let test_pages_spanned () =
  let fn_va = [| 0; 100; 4096; 8192 |] in
  check int "three pages" 3
    (Imk_lebench.Icache.pages_spanned ~fn_va ~hot:[| 0; 1; 2; 3 |]);
  check int "one page" 1 (Imk_lebench.Icache.pages_spanned ~fn_va ~hot:[| 0; 1 |])

let test_runner_results () =
  let fn_va = linked_layout 500 in
  let results = Imk_lebench.Runner.run ~iterations:200 ~fn_va () in
  check int "one result per workload"
    (List.length Imk_lebench.Workloads.all)
    (List.length results);
  List.iter
    (fun (r : Imk_lebench.Runner.result) ->
      let base = r.workload.Imk_lebench.Workloads.base_ns in
      check Alcotest.bool "mean near base" true
        (r.mean_ns > base *. 0.9 && r.mean_ns < base *. 1.5))
    results

let test_normalize () =
  let fn_va = linked_layout 500 in
  let a = Imk_lebench.Runner.run ~iterations:100 ~fn_va () in
  let normalized = Imk_lebench.Runner.normalize ~baseline:a a in
  List.iter
    (fun (_, v) -> check (Alcotest.float 1e-9) "self-normalized" 1.0 v)
    normalized

let test_normalize_mismatch () =
  let fn_va = linked_layout 500 in
  let a = Imk_lebench.Runner.run ~iterations:10 ~fn_va () in
  check Alcotest.bool "rejects mismatch" true
    (try
       ignore (Imk_lebench.Runner.normalize ~baseline:(List.tl a) a);
       false
     with Invalid_argument _ -> true)

(* end-to-end: layouts extracted from booted guests *)
let test_layout_from_guest () =
  let env = Testkit.make_env ~functions:60 () in
  let _, r = Testkit.boot env in
  let _, ch = Imk_vclock.Charge.fresh () in
  let fn_va = Imk_lebench.Runner.layout_of_guest ch r.Vmm.mem r.Vmm.params in
  check int "one va per fn" 60 (Array.length fn_va);
  (* addresses must point at the right functions *)
  Array.iteri
    (fun id va ->
      check (Alcotest.option int) "fn_at agrees" (Some id)
        (Imk_guest.Runtime.fn_at r.Vmm.mem r.Vmm.params ~va))
    fn_va

let test_fgkaslr_guest_slowdown_exceeds_kaslr () =
  let boot variant rando =
    let env = Testkit.make_env ~functions:400 ~variant () in
    let _, r = Testkit.boot env ~rando in
    let _, ch = Imk_vclock.Charge.fresh () in
    Imk_lebench.Runner.layout_of_guest ch r.Vmm.mem r.Vmm.params
  in
  let nok = boot Imk_kernel.Config.Nokaslr Vm_config.Rando_off in
  let kas = boot Imk_kernel.Config.Kaslr Vm_config.Rando_kaslr in
  let fg = boot Imk_kernel.Config.Fgkaslr Vm_config.Rando_fgkaslr in
  let avg layout =
    let fs =
      List.map
        (fun w -> Imk_lebench.Icache.slowdown w ~fn_va:layout)
        Imk_lebench.Workloads.all
    in
    List.fold_left ( +. ) 0. fs /. float_of_int (List.length fs)
  in
  check Alcotest.bool "kaslr ≈ nokaslr" true (abs_float (avg kas -. avg nok) < 0.01);
  check Alcotest.bool "fgkaslr slower" true (avg fg > avg nok +. 0.01)

let () =
  Alcotest.run "imk_lebench"
    [
      ( "workloads",
        [
          Alcotest.test_case "well formed" `Quick test_workloads_well_formed;
          Alcotest.test_case "find" `Quick test_find;
        ] );
      ( "icache model",
        [
          Alcotest.test_case "identity layout free" `Quick
            test_slowdown_identity_layout;
          Alcotest.test_case "kaslr shift free" `Quick
            test_slowdown_kaslr_shift_is_free;
          Alcotest.test_case "shuffle costs" `Quick test_slowdown_shuffle_costs;
          Alcotest.test_case "hot set deterministic" `Quick
            test_hot_set_deterministic;
          Alcotest.test_case "pages spanned" `Quick test_pages_spanned;
        ] );
      ( "runner",
        [
          Alcotest.test_case "results" `Quick test_runner_results;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "normalize mismatch" `Quick test_normalize_mismatch;
          Alcotest.test_case "layout from guest" `Quick test_layout_from_guest;
          Alcotest.test_case "fgkaslr slowdown" `Quick
            test_fgkaslr_guest_slowdown_exceeds_kaslr;
        ] );
    ]

(* Tests for Imk_entropy: PRNG determinism and uniformity invariants,
   entropy pools, Fisher-Yates shuffling. *)

open Imk_entropy

let check = Alcotest.check

let test_deterministic () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  check Alcotest.bool "different streams" true
    (Prng.next_int64 a <> Prng.next_int64 b)

let test_split_independent () =
  let parent = Prng.create ~seed:7L in
  let child = Prng.split parent in
  check Alcotest.bool "child differs from parent" true
    (Prng.next_int64 child <> Prng.next_int64 parent)

let test_next_int_bounds () =
  let rng = Prng.create ~seed:3L in
  for _ = 1 to 1000 do
    let v = Prng.next_int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done

let test_next_int_invalid () =
  let rng = Prng.create ~seed:3L in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.next_int: bound must be positive") (fun () ->
      ignore (Prng.next_int rng 0))

let test_next_int_covers_all () =
  let rng = Prng.create ~seed:11L in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Prng.next_int rng 8) <- true
  done;
  check Alcotest.bool "all values hit" true (Array.for_all Fun.id seen)

let test_next_float_range () =
  let rng = Prng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Prng.next_float rng in
    check Alcotest.bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_next_aligned () =
  let rng = Prng.create ~seed:9L in
  for _ = 1 to 500 do
    let v = Prng.next_aligned rng ~lo:0x1000000 ~hi:0x40000000 ~align:0x200000 in
    check Alcotest.bool "aligned" true (v mod 0x200000 = 0);
    check Alcotest.bool "in range" true (v >= 0x1000000 && v <= 0x40000000)
  done

let test_next_aligned_empty () =
  let rng = Prng.create ~seed:9L in
  Alcotest.check_raises "no aligned value"
    (Invalid_argument "Prng.next_aligned: empty aligned range") (fun () ->
      ignore (Prng.next_aligned rng ~lo:3 ~hi:5 ~align:8))

let test_next_aligned_single_slot () =
  let rng = Prng.create ~seed:9L in
  for _ = 1 to 10 do
    check Alcotest.int "only slot" 8 (Prng.next_aligned rng ~lo:5 ~hi:10 ~align:8)
  done

let test_gaussian_moments () =
  let rng = Prng.create ~seed:13L in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Prng.gaussian rng ~mean:10. ~stddev:2.) in
  let mean = Array.fold_left ( +. ) 0. samples /. float_of_int n in
  check Alcotest.bool "mean near 10" true (abs_float (mean -. 10.) < 0.1)

(* --- the allocation-free generator against its boxed reference --- *)

(* the first four outputs of three seeds, captured from the boxed
   four-field generator that [Prng_ref] preserves *)
let known_answers =
  [
    ( 0L,
      [
        0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L;
        0x6aa594f1262d2d2cL;
      ] );
    ( 42L,
      [
        0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
        0xecb8ad4703b360a1L;
      ] );
    ( -1L,
      [
        0x8f5520d52a7ead08L; 0xc476a018caa1802dL; 0x81de31c0d260469eL;
        0xbf658d7e065f3c2fL;
      ] );
  ]

let test_known_answers () =
  List.iter
    (fun (seed, expected) ->
      let t = Prng.create ~seed and r = Prng_ref.create ~seed in
      List.iter
        (fun want ->
          let name = Printf.sprintf "seed %Ld" seed in
          check Alcotest.int64 name want (Prng.next_int64 t);
          check Alcotest.int64 (name ^ " (reference)") want
            (Prng_ref.next_int64 r))
        expected)
    known_answers

type op =
  | Int64
  | Int of int
  | Float
  | Aligned of { lo : int; hi : int; align : int }
  | Gaussian of { mean : float; stddev : float }
  | Split

let print_op = function
  | Int64 -> "next_int64"
  | Int b -> Printf.sprintf "next_int %d" b
  | Float -> "next_float"
  | Aligned { lo; hi; align } ->
      Printf.sprintf "next_aligned ~lo:%d ~hi:%d ~align:%d" lo hi align
  | Gaussian { mean; stddev } ->
      Printf.sprintf "gaussian ~mean:%h ~stddev:%h" mean stddev
  | Split -> "split"

let gen_op =
  let open QCheck.Gen in
  (* bounds across the whole range: tiny ones, any, and those just above
     half or just below max_int, where rejection sampling loops most *)
  let bound =
    oneof
      [
        int_range 1 64;
        int_range 1 max_int;
        map (fun k -> (max_int / 2) + k) (int_range 1 1000);
        map (fun k -> max_int - k) (int_range 0 1000);
      ]
  in
  let aligned =
    map3
      (fun lo k slots ->
        let align = 1 lsl k in
        Aligned { lo; hi = lo + (align * slots); align })
      (int_range 0 (1 lsl 30))
      (int_range 0 21) (int_range 1 1000)
  in
  let gaussian =
    map2
      (fun mean stddev -> Gaussian { mean; stddev })
      (float_range (-1e3) 1e3) (float_range 0. 1e3)
  in
  frequency
    [
      (3, return Int64); (4, map (fun b -> Int b) bound); (2, return Float);
      (2, aligned); (2, gaussian); (1, return Split);
    ]

let arb_program =
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %LdL: %s" seed
        (String.concat "; " (List.map print_op ops)))
    ~shrink:QCheck.Shrink.(pair nil (fun ops -> list ops))
    QCheck.Gen.(pair ui64 (list_size (0 -- 60) gen_op))

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let qcheck_prng_matches_ref =
  QCheck.Test.make ~name:"Prng ≡ boxed reference on any seed and op sequence"
    ~count:500 arb_program (fun (seed, ops) ->
      let t = Prng.create ~seed and r = Prng_ref.create ~seed in
      List.for_all
        (function
          | Int64 -> Prng.next_int64 t = Prng_ref.next_int64 r
          | Int b -> Prng.next_int t b = Prng_ref.next_int r b
          | Float -> same_float (Prng.next_float t) (Prng_ref.next_float r)
          | Aligned { lo; hi; align } ->
              Prng.next_aligned t ~lo ~hi ~align
              = Prng_ref.next_aligned r ~lo ~hi ~align
          | Gaussian { mean; stddev } ->
              same_float
                (Prng.gaussian t ~mean ~stddev)
                (Prng_ref.gaussian r ~mean ~stddev)
          | Split ->
              (* the children must match, and so must the parents' onward
                 streams, which the following ops read *)
              let c = Prng.split t and cr = Prng_ref.split r in
              List.for_all
                (fun () -> Prng.next_int64 c = Prng_ref.next_int64 cr)
                [ (); (); () ])
        ops)

let test_next_int_allocation_free () =
  Testkit.skip_unless_native ();
  let rng = Prng.create ~seed:5L in
  let words =
    Testkit.minor_words (fun () ->
        for _ = 1 to 100_000 do
          ignore (Sys.opaque_identity (Prng.next_int rng 1000))
        done)
  in
  check (Alcotest.float 0.) "minor words for 100k next_int" 0. words

let test_pool_sources () =
  let host = Pool.create Pool.Host_pool ~seed:1L in
  let guest = Pool.create Pool.Guest_rdrand ~seed:1L in
  check Alcotest.bool "host draw cheaper" true
    (Pool.draw_cost_ns host < Pool.draw_cost_ns guest);
  (* same seed, same source-independent stream *)
  check Alcotest.int64 "stream from seed" (Pool.draw_u64 host) (Pool.draw_u64 guest)

let test_shuffle_is_permutation () =
  let rng = Prng.create ~seed:21L in
  let a = Array.init 100 (fun i -> i) in
  Shuffle.shuffle_in_place rng a;
  check Alcotest.bool "permutation" true (Shuffle.is_permutation a)

let test_permutation_uniform_smoke () =
  (* every position should receive every value eventually *)
  let rng = Prng.create ~seed:22L in
  let hits = Array.make_matrix 4 4 0 in
  for _ = 1 to 2000 do
    let p = Shuffle.permutation rng 4 in
    Array.iteri (fun i v -> hits.(i).(v) <- hits.(i).(v) + 1) p
  done;
  Array.iter
    (Array.iter (fun c -> check Alcotest.bool "cell populated" true (c > 50)))
    hits

let test_is_permutation_rejects () =
  check Alcotest.bool "dup" false (Shuffle.is_permutation [| 0; 0 |]);
  check Alcotest.bool "oob" false (Shuffle.is_permutation [| 0; 2 |]);
  check Alcotest.bool "ok" true (Shuffle.is_permutation [| 1; 0 |])

let test_identity_fraction () =
  check (Alcotest.float 1e-9) "identity" 1.
    (Shuffle.identity_fraction [| 0; 1; 2 |]);
  check (Alcotest.float 1e-9) "derangement" 0.
    (Shuffle.identity_fraction [| 1; 2; 0 |])

let test_log2_factorial () =
  (* log2(4!) = log2 24 ≈ 4.585 *)
  let v = Shuffle.log2_factorial 4 in
  check Alcotest.bool "log2 24" true (abs_float (v -. 4.5849625) < 1e-6);
  check (Alcotest.float 1e-9) "0! = 1" 0. (Shuffle.log2_factorial 0)

let qcheck_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle always yields a permutation" ~count:100
    QCheck.(pair (int_bound 200) int64)
    (fun (n, seed) ->
      let rng = Prng.create ~seed in
      Shuffle.is_permutation (Shuffle.permutation rng n))

let qcheck_aligned_always_aligned =
  QCheck.Test.make ~name:"next_aligned respects alignment and bounds" ~count:300
    QCheck.(triple int64 (int_range 1 20) (int_range 0 1000))
    (fun (seed, align_log, lo) ->
      let rng = Prng.create ~seed in
      let align = 1 lsl (align_log mod 12) in
      let hi = lo + (align * 10) in
      let v = Prng.next_aligned rng ~lo ~hi ~align in
      v mod align = 0 && v >= lo && v <= hi)

let () =
  Alcotest.run "imk_entropy"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_split_independent;
          Alcotest.test_case "next_int bounds" `Quick test_next_int_bounds;
          Alcotest.test_case "next_int invalid" `Quick test_next_int_invalid;
          Alcotest.test_case "next_int coverage" `Quick test_next_int_covers_all;
          Alcotest.test_case "next_float range" `Quick test_next_float_range;
          Alcotest.test_case "next_aligned" `Quick test_next_aligned;
          Alcotest.test_case "next_aligned empty" `Quick test_next_aligned_empty;
          Alcotest.test_case "next_aligned single slot" `Quick
            test_next_aligned_single_slot;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Testkit.to_alcotest qcheck_aligned_always_aligned;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "next_int allocates nothing" `Quick
            test_next_int_allocation_free;
          Testkit.to_alcotest qcheck_prng_matches_ref;
        ] );
      ( "pool",
        [ Alcotest.test_case "source costs" `Quick test_pool_sources ] );
      ( "shuffle",
        [
          Alcotest.test_case "permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "uniform smoke" `Quick
            test_permutation_uniform_smoke;
          Alcotest.test_case "is_permutation rejects" `Quick
            test_is_permutation_rejects;
          Alcotest.test_case "identity fraction" `Quick test_identity_fraction;
          Alcotest.test_case "log2 factorial" `Quick test_log2_factorial;
          Testkit.to_alcotest qcheck_shuffle_permutes;
        ] );
    ]

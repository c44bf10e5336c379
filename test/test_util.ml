(* Tests for Imk_util: byte codecs, checksums, stats, tables, units. *)

open Imk_util

let check = Alcotest.check
let int = Alcotest.int

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

let test_u8_roundtrip () =
  let b = Bytes.create 4 in
  Byteio.set_u8 b 1 0xab;
  check int "u8" 0xab (Byteio.get_u8 b 1);
  Byteio.set_u8 b 1 0x1ff;
  check int "u8 masks" 0xff (Byteio.get_u8 b 1)

let test_u16_roundtrip () =
  let b = Bytes.create 4 in
  Byteio.set_u16 b 0 0xbeef;
  check int "u16" 0xbeef (Byteio.get_u16 b 0);
  check int "u16 low byte first" 0xef (Byteio.get_u8 b 0)

let test_u32_roundtrip () =
  let b = Bytes.create 8 in
  Byteio.set_u32 b 2 0xdeadbeef;
  check int "u32" 0xdeadbeef (Byteio.get_u32 b 2);
  Byteio.set_u32 b 2 0xffffffff;
  check int "u32 max" 0xffffffff (Byteio.get_u32 b 2)

let test_i64_roundtrip () =
  let b = Bytes.create 8 in
  Byteio.set_i64 b 0 (-1L);
  check Alcotest.int64 "i64" (-1L) (Byteio.get_i64 b 0)

let test_addr_roundtrip () =
  let b = Bytes.create 8 in
  (* simulated canonical kernel base: preserves Linux's low-32-bit
     structure while fitting OCaml's 63-bit int *)
  let addr = 0x3fffffff81000000 in
  Byteio.set_addr b 0 addr;
  check int "addr" addr (Byteio.get_addr b 0)

let test_addr_negative_rejected () =
  let b = Bytes.create 8 in
  Alcotest.check_raises "negative addr"
    (Invalid_argument "Byteio.set_addr: negative address") (fun () ->
      Byteio.set_addr b 0 (-1))

let test_u32_signed () =
  let b = Bytes.create 4 in
  Byteio.set_u32 b 0 0xffffffff;
  check int "signed -1" (-1) (Byteio.get_u32_signed b 0);
  Byteio.set_u32 b 0 0x7fffffff;
  check int "signed max" 0x7fffffff (Byteio.get_u32_signed b 0)

let test_fill_zero () =
  let b = Bytes.make 8 'x' in
  Byteio.fill_zero b 2 4;
  check Alcotest.string "fill" "xx\000\000\000\000xx" (Bytes.to_string b)

let test_hex_dump () =
  let b = Bytes.of_string "ABC\000" in
  let dump = Byteio.hex_dump b in
  check Alcotest.bool "contains hex" true
    (contains ~affix:"41 42 43 00" dump)

let test_crc32_known () =
  (* standard test vector: crc32("123456789") = 0xCBF43926 *)
  check int "crc32 vector" 0xcbf43926 (Crc.crc32_string "123456789")

let test_crc32_empty () = check int "crc32 empty" 0 (Crc.crc32_string "")

let test_crc32_incremental () =
  let b = Bytes.of_string "hello world" in
  let whole = Crc.crc32 b 0 11 in
  (* incremental chaining: crc of first half feeds the second *)
  let part = Crc.crc32 ~init:(Crc.crc32 b 0 5) b 5 6 in
  check int "incremental equals whole" whole part

let test_adler32_known () =
  (* adler32("Wikipedia") = 0x11E60398 *)
  let b = Bytes.of_string "Wikipedia" in
  check int "adler vector" 0x11e60398 (Crc.adler32 b 0 9)

let test_stats_basic () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  check (Alcotest.float 1e-9) "mean" 3. s.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1. s.Stats.min;
  check (Alcotest.float 1e-9) "max" 5. s.Stats.max;
  check (Alcotest.float 1e-9) "p50" 3. s.Stats.p50;
  check int "n" 5 s.Stats.n

let test_stats_singleton () =
  let s = Stats.summarize [ 42. ] in
  check (Alcotest.float 1e-9) "mean" 42. s.Stats.mean;
  check (Alcotest.float 1e-9) "stddev" 0. s.Stats.stddev

let test_stats_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: no samples")
    (fun () -> ignore (Stats.summarize []))

let test_stats_nonfinite_raises () =
  let expect_raise what xs =
    Alcotest.check_raises what
      (Invalid_argument "Stats.summarize: non-finite sample") (fun () ->
        ignore (Stats.summarize xs))
  in
  expect_raise "nan" [ 1.; Float.nan; 3. ];
  expect_raise "inf" [ Float.infinity ];
  expect_raise "neg inf" [ 2.; Float.neg_infinity ]

let test_stats_sort_is_numeric () =
  (* percentiles must come from a numeric sort; a polymorphic compare on
     floats is structural and this ordering is its canary *)
  let s = Stats.summarize [ 100.; 2.; 30.; -5.; 0.25 ] in
  check (Alcotest.float 1e-9) "p50" 2. s.Stats.p50;
  check (Alcotest.float 1e-9) "min" (-5.) s.Stats.min;
  check (Alcotest.float 1e-9) "max" 100. s.Stats.max

let test_pct_change () =
  check (Alcotest.float 1e-9) "up" 4. (Stats.pct_change 100. 104.);
  check (Alcotest.float 1e-9) "down" (-50.) (Stats.pct_change 100. 50.)

let test_percentile_interpolates () =
  let a = [| 0.; 10. |] in
  check (Alcotest.float 1e-9) "p50 interp" 5. (Stats.percentile a 50.)

let test_units_bytes () =
  check Alcotest.string "mib" "4.0M" (Units.bytes_to_string (Units.mib 4));
  check Alcotest.string "kib" "94K" (Units.bytes_to_string (Units.kib 94));
  check Alcotest.string "small" "17" (Units.bytes_to_string 17)

let test_units_time () =
  check (Alcotest.float 1e-9) "ns->ms" 1.5 (Units.ns_to_ms 1_500_000);
  check int "ms->ns" 2_000_000 (Units.ms_to_ns 2.);
  check Alcotest.string "pp_ms" "28.10 ms" (Units.ms_string 28_100_000)

(* ---- Minjson: the BENCH_<exp>.json reader ---- *)

let test_minjson_values () =
  let j =
    Minjson.parse
      "{ \"a\": 1, \"b\": -2.5e1, \"s\": \"x\\n\\\"y\\\"\\u00e9\", \"l\": [ \
       true, false, null ] }"
  in
  check int "int" 1 (Minjson.to_int (Minjson.member_exn "a" j));
  check (Alcotest.float 1e-9) "exp float" (-25.)
    (Minjson.to_float (Minjson.member_exn "b" j));
  check Alcotest.string "escapes" "x\n\"y\"\xe9"
    (Minjson.to_string (Minjson.member_exn "s" j));
  check int "list" 3 (List.length (Minjson.to_list (Minjson.member_exn "l" j)));
  check Alcotest.bool "missing member" true (Minjson.member "zz" j = None)

let test_minjson_rejects () =
  let bad what s =
    check Alcotest.bool what true
      (match Minjson.parse s with
      | _ -> false
      | exception Minjson.Malformed _ -> true)
  in
  bad "trailing garbage" "{} x";
  bad "truncated object" "{ \"a\": 1,";
  bad "unterminated string" "\"abc";
  bad "bare word" "nope";
  bad "lone minus" "-";
  bad "non-latin1 escape" "\"\\u0400\"";
  check Alcotest.bool "non-integral to_int" true
    (match Minjson.to_int (Minjson.parse "1.5") with
    | _ -> false
    | exception Minjson.Malformed _ -> true);
  check Alcotest.bool "to_float of string" true
    (match Minjson.to_float (Minjson.parse "\"3\"") with
    | _ -> false
    | exception Minjson.Malformed _ -> true)

let test_table_render () =
  let t = Table.create ~headers:[ "kernel"; "ms" ] in
  Table.add_row t [ "lupine"; "16.0" ];
  Table.add_row t [ "aws" ];
  let s = Table.render t in
  check Alcotest.bool "has header" true (contains ~affix:"kernel" s);
  check Alcotest.bool "has row" true (contains ~affix:"lupine" s)

let test_table_too_many_cells () =
  let t = Table.create ~headers:[ "one" ] in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "a"; "b" ])

let qcheck_crc_differs =
  QCheck.Test.make ~name:"crc32 detects single-byte corruption" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 64)) small_nat)
    (fun (s, i) ->
      QCheck.assume (String.length s > 0);
      let b = Bytes.of_string s in
      let i = i mod Bytes.length b in
      let before = Crc.crc32 b 0 (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      before <> Crc.crc32 b 0 (Bytes.length b))

let qcheck_crc_slice_matches_ref =
  (* the slice-by-8 word loop is pinned to the checked byte-at-a-time
     reference over arbitrary (bytes, off, len, init) — unaligned
     offsets, odd tails shorter than a word, and every init value the
     chaining API can produce *)
  QCheck.Test.make ~name:"crc32 slice-by-8 ≡ crc32_ref on any range"
    ~count:500
    QCheck.(
      quad
        (string_of_size Gen.(0 -- 300))
        small_nat small_nat (option int))
    (fun (s, off0, len0, init) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let off = if n = 0 then 0 else off0 mod (n + 1) in
      let len = if n - off = 0 then 0 else len0 mod (n - off + 1) in
      let init = Option.map (fun i -> i land 0xffffffff) init in
      Crc.crc32 ?init b off len = Crc.crc32_ref ?init b off len)

let qcheck_crc_chaining =
  (* splitting a buffer at any point and chaining ~init composes to the
     one-shot CRC — the property the word loop's tail handoff relies on *)
  QCheck.Test.make ~name:"crc32 chained halves ≡ whole" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 200)) small_nat)
    (fun (s, cut0) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let cut = cut0 mod (n + 1) in
      let whole = Crc.crc32 b 0 n in
      let chained = Crc.crc32 ~init:(Crc.crc32 b 0 cut) b cut (n - cut) in
      let chained_ref =
        Crc.crc32_ref ~init:(Crc.crc32_ref b 0 cut) b cut (n - cut)
      in
      whole = chained && whole = chained_ref)

let qcheck_stats_bounds =
  QCheck.Test.make ~name:"mean lies within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Stats.summarize xs in
      s.Stats.min <= s.Stats.mean +. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

let qcheck_stats_percentiles_ordered =
  (* monotone percentiles and either a raise (non-finite input) or a
     fully finite summary — never a quietly poisoned one *)
  QCheck.Test.make ~name:"percentiles ordered, non-finite rejected" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list float)
       QCheck.Gen.(
         list_size (1 -- 50)
           (oneof [ float_bound_exclusive 1e6; return Float.nan ])))
    (fun xs ->
      QCheck.assume (xs <> []);
      match Stats.summarize xs with
      | s ->
          List.for_all Float.is_finite
            [ s.Stats.mean; s.Stats.stddev; s.Stats.p50; s.Stats.p90; s.Stats.p99 ]
          && s.Stats.min <= s.Stats.p50 +. 1e-9
          && s.Stats.p50 <= s.Stats.p90 +. 1e-9
          && s.Stats.p90 <= s.Stats.p99 +. 1e-9
          && s.Stats.p99 <= s.Stats.max +. 1e-9
      | exception Invalid_argument _ ->
          List.exists (fun x -> not (Float.is_finite x)) xs)

let same_summary (a : Stats.summary) (b : Stats.summary) =
  let bits = Int64.bits_of_float in
  a.Stats.n = b.Stats.n
  && List.for_all2
       (fun x y -> bits x = bits y)
       [ a.mean; a.min; a.max; a.stddev; a.p50; a.p90; a.p99 ]
       [ b.mean; b.min; b.max; b.stddev; b.p50; b.p90; b.p99 ]

let qcheck_stats_sorted_matches_array =
  (* one moments pass serves both: on input that is already sorted the
     two summaries read the same samples in the same order, so every
     field agrees to the bit *)
  QCheck.Test.make ~name:"summarize_sorted ≡ summarize_array on sorted input"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list float)
       QCheck.Gen.(
         list_size (1 -- 200)
           (oneof
              [
                float_range (-1e6) 1e6;
                map float_of_int (int_range 0 1_000_000_000);
                float_range (-1e-3) 1e-3;
              ])))
    (fun xs ->
      let a = Array.of_list (List.sort Float.compare xs) in
      same_summary (Stats.summarize_sorted a) (Stats.summarize_array a))

let test_summarize_sorted_allocation () =
  Testkit.skip_unless_native ();
  let words n =
    let xs = Array.init n float_of_int in
    Testkit.minor_words (fun () ->
        ignore (Sys.opaque_identity (Stats.summarize_sorted xs)))
  in
  let small = words 1_000 and large = words 100_000 in
  check (Alcotest.float 0.) "same words for 1k and 100k samples" small large;
  check Alcotest.bool "a handful of words, not one per sample" true
    (large < 100.)

let () =
  Alcotest.run "imk_util"
    [
      ( "byteio",
        [
          Alcotest.test_case "u8 roundtrip" `Quick test_u8_roundtrip;
          Alcotest.test_case "u16 roundtrip" `Quick test_u16_roundtrip;
          Alcotest.test_case "u32 roundtrip" `Quick test_u32_roundtrip;
          Alcotest.test_case "i64 roundtrip" `Quick test_i64_roundtrip;
          Alcotest.test_case "addr roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "addr rejects negative" `Quick
            test_addr_negative_rejected;
          Alcotest.test_case "u32 signed" `Quick test_u32_signed;
          Alcotest.test_case "fill_zero" `Quick test_fill_zero;
          Alcotest.test_case "hex_dump" `Quick test_hex_dump;
        ] );
      ( "crc",
        [
          Alcotest.test_case "crc32 vector" `Quick test_crc32_known;
          Alcotest.test_case "crc32 empty" `Quick test_crc32_empty;
          Alcotest.test_case "crc32 incremental" `Quick test_crc32_incremental;
          Alcotest.test_case "adler32 vector" `Quick test_adler32_known;
          Testkit.to_alcotest qcheck_crc_differs;
          Testkit.to_alcotest qcheck_crc_slice_matches_ref;
          Testkit.to_alcotest qcheck_crc_chaining;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "singleton" `Quick test_stats_singleton;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
          Alcotest.test_case "non-finite raises" `Quick
            test_stats_nonfinite_raises;
          Alcotest.test_case "numeric sort" `Quick test_stats_sort_is_numeric;
          Alcotest.test_case "pct_change" `Quick test_pct_change;
          Alcotest.test_case "percentile interpolation" `Quick
            test_percentile_interpolates;
          Testkit.to_alcotest qcheck_stats_bounds;
          Testkit.to_alcotest qcheck_stats_percentiles_ordered;
          Testkit.to_alcotest qcheck_stats_sorted_matches_array;
          Alcotest.test_case "summarize_sorted allocation" `Quick
            test_summarize_sorted_allocation;
        ] );
      ( "minjson",
        [
          Alcotest.test_case "values" `Quick test_minjson_values;
          Alcotest.test_case "rejects" `Quick test_minjson_rejects;
        ] );
      ( "units+table",
        [
          Alcotest.test_case "bytes formatting" `Quick test_units_bytes;
          Alcotest.test_case "time formatting" `Quick test_units_time;
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "table overflow" `Quick test_table_too_many_cells;
        ] );
    ]

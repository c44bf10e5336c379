(* Tests for Imk_kernel: configs, graph generation, image building, the
   relocs tool, and the bzImage container. *)

open Imk_kernel

let check = Alcotest.check
let int = Alcotest.int

let small_cfg ?(functions = 60) ?(variant = Config.Kaslr) () =
  { (Config.make ~scale:4 Config.Aws variant) with Config.functions }

let test_config_matrix () =
  let all = Config.all () in
  check int "nine kernels" 9 (List.length all);
  List.iter
    (fun (c : Config.t) ->
      check Alcotest.bool (c.Config.name ^ " relocatable iff randomizing") true
        (c.Config.relocatable = (c.Config.variant <> Config.Nokaslr));
      check Alcotest.bool (c.Config.name ^ " fg iff fgkaslr") true
        (c.Config.fg_sections = (c.Config.variant = Config.Fgkaslr)))
    all

(* the CLIs' --kernel vocabulary names exactly the matrix *)
let test_config_kernel_names () =
  check
    Alcotest.(list string)
    "one name per kernel, in matrix order"
    (List.map (fun (c : Config.t) -> c.Config.name) (Config.all ()))
    (List.map fst Config.kernel_names);
  List.iter
    (fun (name, (p, v)) ->
      check Alcotest.string name name (Config.kernel_name p v);
      check Alcotest.string (name ^ " config") name (Config.make p v).Config.name)
    Config.kernel_names;
  check Alcotest.bool "none-opt is the aligned none link" true
    (Bzimage.of_method "none-opt" = ("none", Bzimage.None_optimized));
  check Alcotest.bool "a codec is a standard link" true
    (Bzimage.of_method "lz4" = ("lz4", Bzimage.Standard))

let test_config_fg_more_relocs () =
  let k = Config.make Config.Aws Config.Kaslr in
  let f = Config.make Config.Aws Config.Fgkaslr in
  check Alcotest.bool "fg build has more call sites" true
    (f.Config.avg_call_sites > k.Config.avg_call_sites)

let test_config_deterministic_seed () =
  let a = Config.make Config.Lupine Config.Kaslr in
  let b = Config.make Config.Lupine Config.Kaslr in
  check Alcotest.int64 "same seed" a.Config.seed b.Config.seed

let test_graph_strongly_connected_ring () =
  let g = Function_graph.generate (small_cfg ()) in
  Array.iteri
    (fun i (f : Function_graph.fn) ->
      check Alcotest.bool "ring edge present" true
        (Array.exists
           (fun (s : Function_graph.site) ->
             s.target = (i + 1) mod Array.length g.Function_graph.fns)
           f.sites))
    g.Function_graph.fns

let test_graph_deterministic () =
  let cfg = small_cfg () in
  let a = Function_graph.generate cfg in
  let b = Function_graph.generate cfg in
  check int "same text size" (Function_graph.total_text_bytes a)
    (Function_graph.total_text_bytes b)

let test_graph_fn_sizes_aligned () =
  let g = Function_graph.generate (small_cfg ()) in
  Array.iter
    (fun f ->
      check int "16-aligned" 0 (Function_graph.fn_size f mod 16);
      check Alcotest.bool "covers header+sites" true
        (Function_graph.fn_size f
        >= Function_graph.fn_header_bytes
           + (Array.length f.Function_graph.sites * Function_graph.site_bytes)))
    g.Function_graph.fns

let test_fn_magic_properties () =
  check Alcotest.bool "odd" true (Function_graph.fn_magic 0 land 1 = 1);
  check Alcotest.bool "distinct" true
    (Function_graph.fn_magic 1 <> Function_graph.fn_magic 2)

let test_image_builds_and_parses () =
  let b = Image.build (small_cfg ()) in
  let parsed = Imk_elf.Parser.parse b.Image.vmlinux in
  check int "entry is fn 0" b.Image.fn_va.(0) parsed.Imk_elf.Types.entry;
  check Alcotest.bool "has .text" true
    (Imk_elf.Types.section_by_name parsed ".text" <> None);
  check Alcotest.bool "has tables" true
    (Imk_elf.Types.section_by_name parsed ".kallsyms" <> None
    && Imk_elf.Types.section_by_name parsed ".extab" <> None
    && Imk_elf.Types.section_by_name parsed ".rodata" <> None
    && Imk_elf.Types.section_by_name parsed ".bss" <> None)

let test_image_fg_sections () =
  let b = Image.build (small_cfg ~variant:Config.Fgkaslr ()) in
  let parsed = Imk_elf.Parser.parse b.Image.vmlinux in
  let fn_sections =
    Array.to_list parsed.Imk_elf.Types.sections
    |> List.filter Imk_elf.Types.is_function_section
  in
  check int "one section per function" 60 (List.length fn_sections);
  check Alcotest.bool "no plain .text" true
    (Imk_elf.Types.section_by_name parsed ".text" = None)

let test_image_nokaslr_has_no_relocs () =
  let b = Image.build (small_cfg ~variant:Config.Nokaslr ()) in
  check int "no relocs" 0 (Imk_elf.Relocation.entry_count b.Image.relocs)

let test_image_relocs_sorted () =
  let b = Image.build (small_cfg ()) in
  check Alcotest.bool "sorted" true
    (Imk_elf.Relocation.sorted_dedup_invariant b.Image.relocs)

let test_image_sizes_ordering () =
  (* Table 1 shape at small scale: fgkaslr image is bigger than kaslr *)
  let k = Image.build (small_cfg ~variant:Config.Kaslr ()) in
  let f = Image.build (small_cfg ~variant:Config.Fgkaslr ()) in
  check Alcotest.bool "fg bigger" true
    (Bytes.length f.Image.vmlinux > Bytes.length k.Image.vmlinux);
  check Alcotest.bool "fg more reloc bytes" true
    (Bytes.length f.Image.relocs_bytes > Bytes.length k.Image.relocs_bytes)

let test_modeled_sizes () =
  let b = Image.build (small_cfg ()) in
  check int "scale multiplies" (4 * Bytes.length b.Image.vmlinux)
    (Image.modeled_vmlinux_bytes b)

(* --- unikernel flavor --- *)

let test_unikernel_configs () =
  let plain = Unikernel.config ~aslr:false () in
  let rando = Unikernel.config ~aslr:true () in
  check Alcotest.bool "plain not relocatable" true
    (not plain.Config.relocatable);
  check Alcotest.bool "aslr build is fg-sectioned" true rando.Config.fg_sections;
  check int "full-size build scale" 1 rando.Config.scale;
  check Alcotest.bool "tiny boot" true (rando.Config.linux_boot_ms < 5.)

let test_unikernel_builds () =
  let b = Unikernel.build ~aslr:true () in
  check Alcotest.bool "has relocations" true
    (Imk_elf.Relocation.entry_count b.Image.relocs > 0);
  check Alcotest.bool "small image" true
    (Bytes.length b.Image.vmlinux < 2 * 1024 * 1024);
  let plain = Unikernel.build ~aslr:false () in
  check int "no relocs without aslr" 0
    (Imk_elf.Relocation.entry_count plain.Image.relocs)

(* --- relocs tool --- *)

let test_relocs_tool_matches_build () =
  List.iter
    (fun variant ->
      let b = Image.build (small_cfg ~variant ()) in
      let extracted = Relocs_tool.extract b.Image.vmlinux in
      check Alcotest.bool
        (Config.variant_name variant ^ ": extracted = built")
        true
        (extracted.Imk_elf.Relocation.abs64 = b.Image.relocs.Imk_elf.Relocation.abs64
         || not b.Image.config.Config.relocatable)
        ;
      if b.Image.config.Config.relocatable then begin
        Alcotest.(check (array int)) "abs64"
          b.Image.relocs.Imk_elf.Relocation.abs64
          extracted.Imk_elf.Relocation.abs64;
        Alcotest.(check (array int)) "abs32"
          b.Image.relocs.Imk_elf.Relocation.abs32
          extracted.Imk_elf.Relocation.abs32;
        Alcotest.(check (array int)) "inv32"
          b.Image.relocs.Imk_elf.Relocation.inv32
          extracted.Imk_elf.Relocation.inv32
      end)
    [ Config.Kaslr; Config.Fgkaslr ]

let test_relocs_tool_rejects_garbage () =
  check Alcotest.bool "rejects" true
    (try
       ignore (Relocs_tool.extract (Bytes.make 64 'z'));
       false
     with Relocs_tool.Unsupported _ -> true)

let test_walk_functions_counts () =
  let b = Image.build (small_cfg ()) in
  let elf = Imk_elf.Parser.parse b.Image.vmlinux in
  let seen = ref 0 in
  Relocs_tool.walk_functions elf
    ~f:(fun ~section_va:_ ~fn_off:_ ~id ~size ~n_sites:_ ~data:_ ->
      check int "size matches graph"
        (Function_graph.fn_size b.Image.graph.Function_graph.fns.(id))
        size;
      incr seen);
  check int "all functions walked" 60 !seen

(* --- bzImage --- *)

(* the payload split into (vmlinux, relocs), decoded in place as the
   bootstrap loader does *)
let unpack (bz : Bzimage.t) =
  let n = bz.Bzimage.vmlinux_len in
  let dst = Bytes.make (n + bz.Bzimage.relocs_len) '\000' in
  Bzimage.unpack_payload_into bz ~dst ~dst_off:0;
  (Bytes.sub dst 0 n, Bytes.sub dst n bz.Bzimage.relocs_len)

let test_bzimage_roundtrip () =
  let b = Image.build (small_cfg ()) in
  List.iter
    (fun (codec, variant) ->
      let bz = Bzimage.link b ~codec ~variant in
      let decoded = Bzimage.decode (Bzimage.encode bz) in
      check Alcotest.string "codec" codec decoded.Bzimage.codec;
      check int "vmlinux len" (Bytes.length b.Image.vmlinux)
        decoded.Bzimage.vmlinux_len;
      let vmlinux, relocs = unpack decoded in
      check Alcotest.bool "vmlinux intact" true
        (Bytes.equal vmlinux b.Image.vmlinux);
      check Alcotest.bool "relocs intact" true
        (Bytes.equal relocs b.Image.relocs_bytes))
    [
      ("lz4", Bzimage.Standard);
      ("none", Bzimage.Standard);
      ("none", Bzimage.None_optimized);
      ("gzip", Bzimage.Standard);
    ]

let test_bzimage_none_opt_requires_none () =
  let b = Image.build (small_cfg ()) in
  Alcotest.check_raises "codec mismatch"
    (Invalid_argument "Bzimage.link: none-optimized implies codec \"none\"")
    (fun () -> ignore (Bzimage.link b ~codec:"lz4" ~variant:Bzimage.None_optimized))

let test_bzimage_none_opt_aligned () =
  let b = Image.build (small_cfg ()) in
  let bz = Bzimage.link b ~codec:"none" ~variant:Bzimage.None_optimized in
  check int "payload aligned to 128K" 0 (Bzimage.payload_file_offset bz mod (128 * 1024))

let test_bzimage_rejects_garbage () =
  check Alcotest.bool "bad magic" true
    (try
       ignore (Bzimage.decode (Bytes.make 200 'q'));
       false
     with Bzimage.Malformed _ -> true);
  check Alcotest.bool "truncated" true
    (try
       ignore (Bzimage.decode (Bytes.create 10));
       false
     with Bzimage.Malformed _ -> true)

let test_bzimage_corrupt_payload () =
  let b = Image.build (small_cfg ()) in
  let bz = Bzimage.link b ~codec:"lz4" ~variant:Bzimage.Standard in
  let enc = Bzimage.encode bz in
  (* flip a byte inside the payload *)
  let off = Bytes.length enc - 100 in
  Bytes.set enc off (Char.chr (Char.code (Bytes.get enc off) lxor 0xff));
  let decoded = Bzimage.decode enc in
  check Alcotest.bool "corrupt payload detected" true
    (try
       ignore (unpack decoded);
       false
     with Imk_compress.Codec.Corrupt _ -> true)

let qcheck_image_builds =
  QCheck.Test.make ~name:"images build and round-trip for random configs"
    ~count:15
    QCheck.(triple (int_range 2 80) bool int64)
    (fun (functions, fg, seed) ->
      let variant = if fg then Config.Fgkaslr else Config.Kaslr in
      let cfg =
        { (Config.make ~scale:2 ~seed Config.Lupine variant) with Config.functions }
      in
      let b = Image.build cfg in
      let parsed = Imk_elf.Parser.parse b.Image.vmlinux in
      Array.length parsed.Imk_elf.Types.symbols = functions
      && Imk_elf.Relocation.sorted_dedup_invariant b.Image.relocs)

let () =
  Alcotest.run "imk_kernel"
    [
      ( "config",
        [
          Alcotest.test_case "matrix" `Quick test_config_matrix;
          Alcotest.test_case "kernel names" `Quick test_config_kernel_names;
          Alcotest.test_case "fg relocs" `Quick test_config_fg_more_relocs;
          Alcotest.test_case "deterministic" `Quick
            test_config_deterministic_seed;
        ] );
      ( "function_graph",
        [
          Alcotest.test_case "ring" `Quick test_graph_strongly_connected_ring;
          Alcotest.test_case "deterministic" `Quick test_graph_deterministic;
          Alcotest.test_case "sizes" `Quick test_graph_fn_sizes_aligned;
          Alcotest.test_case "magic" `Quick test_fn_magic_properties;
        ] );
      ( "image",
        [
          Alcotest.test_case "builds+parses" `Quick test_image_builds_and_parses;
          Alcotest.test_case "fg sections" `Quick test_image_fg_sections;
          Alcotest.test_case "nokaslr no relocs" `Quick
            test_image_nokaslr_has_no_relocs;
          Alcotest.test_case "relocs sorted" `Quick test_image_relocs_sorted;
          Alcotest.test_case "size ordering" `Quick test_image_sizes_ordering;
          Alcotest.test_case "modeled sizes" `Quick test_modeled_sizes;
          Testkit.to_alcotest qcheck_image_builds;
        ] );
      ( "unikernel",
        [
          Alcotest.test_case "configs" `Quick test_unikernel_configs;
          Alcotest.test_case "builds" `Quick test_unikernel_builds;
        ] );
      ( "relocs_tool",
        [
          Alcotest.test_case "matches build" `Quick
            test_relocs_tool_matches_build;
          Alcotest.test_case "rejects garbage" `Quick
            test_relocs_tool_rejects_garbage;
          Alcotest.test_case "walk counts" `Quick test_walk_functions_counts;
        ] );
      ( "bzimage",
        [
          Alcotest.test_case "roundtrip" `Quick test_bzimage_roundtrip;
          Alcotest.test_case "none-opt codec" `Quick
            test_bzimage_none_opt_requires_none;
          Alcotest.test_case "none-opt alignment" `Quick
            test_bzimage_none_opt_aligned;
          Alcotest.test_case "rejects garbage" `Quick
            test_bzimage_rejects_garbage;
          Alcotest.test_case "corrupt payload" `Quick
            test_bzimage_corrupt_payload;
        ] );
    ]

(* Tests for Imk_elf: writer/parser round-trips, layout, relocation table
   codec, builder invariants, malformed-input rejection. *)

open Imk_elf

let check = Alcotest.check
let int = Alcotest.int

let sample_image () =
  let b = Builder.create () in
  let text = Bytes.of_string (String.make 256 'T') in
  let rodata = Bytes.of_string (String.make 64 'R') in
  let base = Imk_memory.Addr.link_base in
  Builder.add_section b ~name:".text" ~sh_type:Types.sht_progbits
    ~flags:(Types.shf_alloc lor Types.shf_execinstr)
    ~addr:base ~addralign:16 text;
  Builder.add_section b ~name:".rodata" ~sh_type:Types.sht_progbits
    ~flags:Types.shf_alloc ~addr:(base + 4096) ~addralign:64 rodata;
  Builder.add_section b ~name:".bss" ~sh_type:Types.sht_nobits
    ~flags:(Types.shf_alloc lor Types.shf_write)
    ~addr:(base + 8192) ~mem_size:512 (Bytes.create 0);
  Builder.add_symbol b ~name:"startup_64" ~value:base ~size:64
    ~sym_type:Types.stt_func ~section:".text";
  Builder.add_symbol b ~name:"some_data" ~value:(base + 4096) ~size:8
    ~sym_type:Types.stt_object ~section:".rodata";
  Builder.set_entry b base;
  Builder.finalize b ~phys_of_vaddr:(fun va -> va - Imk_memory.Addr.kmap_base)

let sections_equal (a : Types.section) (b : Types.section) =
  a.name = b.name && a.sh_type = b.sh_type && a.flags = b.flags
  && a.addr = b.addr && a.offset = b.offset && a.size = b.size
  && a.addralign = b.addralign && Bytes.equal a.data b.data

let test_roundtrip () =
  let t = sample_image () in
  let written = Writer.write t in
  let parsed = Parser.parse written in
  check int "entry" t.Types.entry parsed.Types.entry;
  check int "sections" (Array.length t.Types.sections)
    (Array.length parsed.Types.sections);
  Array.iteri
    (fun i s ->
      check Alcotest.bool ("section " ^ s.Types.name) true
        (sections_equal s parsed.Types.sections.(i)))
    t.Types.sections;
  check int "segments" (Array.length t.Types.segments)
    (Array.length parsed.Types.segments);
  check int "symbols" (Array.length t.Types.symbols)
    (Array.length parsed.Types.symbols);
  Array.iteri
    (fun i (s : Types.symbol) ->
      let p = parsed.Types.symbols.(i) in
      check Alcotest.string "sym name" s.sym_name p.Types.sym_name;
      check int "sym value" s.value p.Types.value;
      check int "sym shndx" s.shndx p.Types.shndx;
      check int "sym type" s.sym_type p.Types.sym_type)
    t.Types.symbols

let test_is_elf () =
  let t = sample_image () in
  check Alcotest.bool "valid" true (Parser.is_elf (Writer.write t));
  check Alcotest.bool "invalid" false (Parser.is_elf (Bytes.of_string "nope"))

let expect_malformed label f =
  Alcotest.test_case label `Quick (fun () ->
      check Alcotest.bool label true
        (try
           ignore (f ());
           false
         with Parser.Malformed _ -> true))

let test_segments_derived () =
  let t = sample_image () in
  check Alcotest.bool "at least one PT_LOAD" true
    (Array.exists (fun (p : Types.segment) -> p.p_type = Types.pt_load) t.Types.segments);
  Array.iter
    (fun (p : Types.segment) ->
      check Alcotest.bool "paddr mapping" true
        (p.Types.p_paddr = p.Types.p_vaddr - Imk_memory.Addr.kmap_base))
    t.Types.segments

let test_nobits_breaks_segment_file_size () =
  let t = sample_image () in
  (* the .bss section must not contribute file size to any segment *)
  Array.iter
    (fun (p : Types.segment) ->
      check Alcotest.bool "filesz <= memsz" true (p.Types.p_filesz <= p.Types.p_memsz))
    t.Types.segments

let test_builder_duplicate_section () =
  let b = Builder.create () in
  Builder.add_section b ~name:".text" ~sh_type:Types.sht_progbits
    ~flags:Types.shf_alloc ~addr:0 (Bytes.create 1);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Elf.Builder: duplicate section .text") (fun () ->
      Builder.add_section b ~name:".text" ~sh_type:Types.sht_progbits
        ~flags:Types.shf_alloc ~addr:64 (Bytes.create 1))

let test_builder_unknown_symbol_section () =
  let b = Builder.create () in
  Alcotest.check_raises "unknown section"
    (Invalid_argument "Elf.Builder: unknown section .text") (fun () ->
      Builder.add_symbol b ~name:"x" ~value:0 ~size:0
        ~sym_type:Types.stt_func ~section:".text")

let test_builder_out_of_order_addresses () =
  let b = Builder.create () in
  Builder.add_section b ~name:".a" ~sh_type:Types.sht_progbits
    ~flags:Types.shf_alloc ~addr:8192 (Bytes.create 16);
  Builder.add_section b ~name:".b" ~sh_type:Types.sht_progbits
    ~flags:Types.shf_alloc ~addr:0 (Bytes.create 16);
  check Alcotest.bool "finalize rejects" true
    (try
       ignore (Builder.finalize b ~phys_of_vaddr:Fun.id);
       false
     with Invalid_argument _ -> true)

let test_layout_align_up () =
  check int "already aligned" 4096 (Layout.align_up 4096 4096);
  check int "rounds" 8192 (Layout.align_up 4097 4096);
  check int "one" 7 (Layout.align_up 7 1);
  Alcotest.check_raises "zero align"
    (Invalid_argument "Layout.align_up: non-positive alignment") (fun () ->
      ignore (Layout.align_up 1 0))

let test_layout_assign_offsets () =
  let mk name size align =
    {
      Types.name;
      sh_type = Types.sht_progbits;
      flags = Types.shf_alloc;
      addr = 0;
      offset = 0;
      size;
      addralign = align;
      entsize = 0;
      data = Bytes.create size;
    }
  in
  let out =
    Layout.assign_offsets ~first_offset:100 [| mk ".a" 10 16; mk ".b" 5 64 |]
  in
  check int ".a offset" 112 out.(0).Types.offset;
  check int ".b offset" 128 out.(1).Types.offset

let test_function_section_recognition () =
  let s sec_name =
    {
      Types.name = sec_name;
      sh_type = Types.sht_progbits;
      flags = 0;
      addr = 0;
      offset = 0;
      size = 0;
      addralign = 1;
      entsize = 0;
      data = Bytes.create 0;
    }
  in
  check Alcotest.bool ".text.fn" true (Types.is_function_section (s ".text.fn_00001"));
  check Alcotest.bool ".text" false (Types.is_function_section (s ".text"));
  check Alcotest.bool ".rodata" false (Types.is_function_section (s ".rodata"))

(* --- relocation tables --- *)

let test_reloc_roundtrip () =
  let t =
    {
      Relocation.abs64 = [| 1; 2; 300 |];
      abs32 = [| 10; 20 |];
      inv32 = [| 5 |];
    }
  in
  let back = Relocation.decode (Relocation.encode t) in
  Alcotest.(check (array int)) "abs64" t.Relocation.abs64 back.Relocation.abs64;
  Alcotest.(check (array int)) "abs32" t.Relocation.abs32 back.Relocation.abs32;
  Alcotest.(check (array int)) "inv32" t.Relocation.inv32 back.Relocation.inv32;
  check int "count" 6 (Relocation.entry_count back);
  check int "size" (16 + 48) (Relocation.size_bytes t)

let test_reloc_empty () =
  let back = Relocation.decode (Relocation.encode Relocation.empty) in
  check int "empty" 0 (Relocation.entry_count back)

let test_reloc_bad_magic () =
  Alcotest.check_raises "bad magic"
    (Relocation.Bad_table "Relocation.decode: bad magic") (fun () ->
      ignore (Relocation.decode (Bytes.make 16 'x')))

let test_reloc_truncated () =
  let t = { Relocation.abs64 = [| 1; 2 |]; abs32 = [||]; inv32 = [||] } in
  let enc = Relocation.encode t in
  Alcotest.check_raises "truncated"
    (Relocation.Bad_table "Relocation.decode: truncated entries") (fun () ->
      ignore (Relocation.decode (Bytes.sub enc 0 (Bytes.length enc - 4))))

let test_reloc_invariant () =
  check Alcotest.bool "sorted ok" true
    (Relocation.sorted_dedup_invariant
       { Relocation.abs64 = [| 1; 2; 3 |]; abs32 = [||]; inv32 = [||] });
  check Alcotest.bool "dup rejected" false
    (Relocation.sorted_dedup_invariant
       { Relocation.abs64 = [| 1; 1 |]; abs32 = [||]; inv32 = [||] })

(* --- notes --- *)

let test_note_roundtrip () =
  let t = { Note.owner = "IMK-TEST"; note_type = 42; desc = Bytes.of_string "abcde" } in
  let back = Note.decode (Note.encode t) in
  check Alcotest.string "owner" t.Note.owner back.Note.owner;
  check int "type" 42 back.Note.note_type;
  check Alcotest.string "desc" "abcde" (Bytes.to_string back.Note.desc)

let test_kaslr_note_roundtrip () =
  let c =
    {
      Note.phys_start = Imk_memory.Addr.default_phys_load;
      phys_align = Imk_memory.Addr.kernel_align;
      kmap_base = Imk_memory.Addr.kmap_base;
      image_size_max = Imk_memory.Addr.kaslr_max_offset;
    }
  in
  let back = Note.decode_kaslr (Note.decode (Note.encode (Note.encode_kaslr c))) in
  check int "phys_start" c.Note.phys_start back.Note.phys_start;
  check int "kmap" c.Note.kmap_base back.Note.kmap_base

let test_note_rejects_garbage () =
  check Alcotest.bool "truncated" true
    (try
       ignore (Note.decode (Bytes.create 4));
       false
     with Types.Malformed _ -> true);
  check Alcotest.bool "wrong owner" true
    (try
       ignore
         (Note.decode_kaslr
            { Note.owner = "GNU"; note_type = 1; desc = Bytes.create 32 });
       false
     with Types.Malformed _ -> true)

(* a KASLR-constants field of 2^62 or more is image damage: it fails
   typed, as Malformed naming the field, and classifies as corrupt-image
   rather than escaping as Invalid_argument *)
let test_kaslr_note_rejects_wide_fields () =
  let c =
    {
      Note.phys_start = Imk_memory.Addr.default_phys_load;
      phys_align = Imk_memory.Addr.kernel_align;
      kmap_base = Imk_memory.Addr.kmap_base;
      image_size_max = Imk_memory.Addr.kaslr_max_offset;
    }
  in
  List.iter
    (fun (field, off) ->
      List.iter
        (fun v ->
          let note = Note.encode_kaslr c in
          Bytes.set_int64_le note.Note.desc off v;
          match Note.decode_kaslr note with
          | _ -> Alcotest.failf "%s = %Lx decoded" field v
          | exception e ->
              check Alcotest.string (field ^ " message")
                (Printexc.to_string
                   (Types.Malformed (field ^ " does not fit in a native int")))
                (Printexc.to_string e);
              check Alcotest.(option string) (field ^ " class")
                (Some "corrupt-image")
                (Option.map Imk_fault.Failure.kind_name
                   (Imk_fault.Failure.classify e)))
        [ Int64.shift_left 1L 62; -1L ])
    [ ("phys_start", 0); ("phys_align", 8); ("kmap_base", 16); ("image_size_max", 24) ]

let qcheck_roundtrip =
  QCheck.Test.make ~name:"elf: parse ∘ write = id on random images" ~count:40
    QCheck.(triple (int_range 1 5) (int_range 0 8) int64)
    (fun (nsections, nsyms, seed) ->
      let rng = Imk_entropy.Prng.create ~seed in
      let b = Builder.create () in
      let base = Imk_memory.Addr.link_base in
      let addr = ref base in
      let names = ref [] in
      for i = 0 to nsections - 1 do
        let size = 16 + Imk_entropy.Prng.next_int rng 512 in
        let name = Printf.sprintf ".sec%d" i in
        names := name :: !names;
        Builder.add_section b ~name ~sh_type:Types.sht_progbits
          ~flags:Types.shf_alloc ~addr:!addr
          (Bytes.init size (fun _ ->
               Char.chr (Imk_entropy.Prng.next_int rng 256)));
        addr := Imk_memory.Addr.align_up (!addr + size) 64
      done;
      let names = Array.of_list !names in
      for i = 0 to nsyms - 1 do
        Builder.add_symbol b
          ~name:(Printf.sprintf "sym%d" i)
          ~value:(base + i) ~size:i ~sym_type:Types.stt_func
          ~section:names.(Imk_entropy.Prng.next_int rng (Array.length names))
      done;
      Builder.set_entry b base;
      let t = Builder.finalize b ~phys_of_vaddr:(fun v -> v - base) in
      let parsed = Parser.parse (Writer.write t) in
      parsed.Types.entry = t.Types.entry
      && Array.length parsed.Types.sections = Array.length t.Types.sections
      && Array.for_all2 sections_equal t.Types.sections parsed.Types.sections
      && Array.length parsed.Types.symbols = Array.length t.Types.symbols)

let qcheck_reloc_roundtrip =
  QCheck.Test.make ~name:"relocs: decode ∘ encode = id" ~count:100
    QCheck.(triple (list small_nat) (list small_nat) (list small_nat))
    (fun (a, b, c) ->
      let arr l = Array.of_list (List.sort_uniq compare l) in
      let t = { Relocation.abs64 = arr a; abs32 = arr b; inv32 = arr c } in
      Relocation.decode (Relocation.encode t) = t)

(* --- adversarial decoding: any corruption fails typed, never as a raw
   [Invalid_argument]/[Failure] from the byte readers (mirrors the
   test_compress adversarial suites) --- *)

let mutate rng b =
  let b = Bytes.copy b in
  match Imk_entropy.Prng.next_int rng 3 with
  | 0 ->
      (* flip 1..8 bits anywhere *)
      for _ = 1 to 1 + Imk_entropy.Prng.next_int rng 8 do
        let bit = Imk_entropy.Prng.next_int rng (Bytes.length b * 8) in
        Bytes.set b (bit / 8)
          (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))))
      done;
      b
  | 1 ->
      (* truncate to a random prefix *)
      Bytes.sub b 0 (Imk_entropy.Prng.next_int rng (Bytes.length b))
  | _ ->
      (* splice a run of random garbage *)
      let off = Imk_entropy.Prng.next_int rng (Bytes.length b) in
      let len = min (Bytes.length b - off) (1 + Imk_entropy.Prng.next_int rng 64) in
      for i = off to off + len - 1 do
        Bytes.set b i (Char.chr (Imk_entropy.Prng.next_int rng 256))
      done;
      b

let qcheck_parser_adversarial =
  QCheck.Test.make
    ~name:"elf: corrupted images parse or fail typed (Malformed)" ~count:300
    QCheck.int64
    (fun seed ->
      let rng = Imk_entropy.Prng.create ~seed in
      let b = mutate rng (Writer.write (sample_image ())) in
      match Parser.parse b with
      | _ -> true
      | exception Parser.Malformed _ -> true
      | exception _ -> false)

let qcheck_reloc_adversarial =
  QCheck.Test.make
    ~name:"relocs: corrupted tables decode or fail typed (Bad_table)"
    ~count:300 QCheck.int64
    (fun seed ->
      let rng = Imk_entropy.Prng.create ~seed in
      let t =
        {
          Relocation.abs64 = Array.init 5 (fun i -> 100 + i);
          abs32 = [| 7; 9 |];
          inv32 = [| 3 |];
        }
      in
      let b = mutate rng (Relocation.encode t) in
      match Relocation.decode b with
      | _ -> true
      | exception Relocation.Bad_table _ -> true
      | exception _ -> false)

let qcheck_note_adversarial =
  QCheck.Test.make
    ~name:"notes: corrupted notes decode or fail typed (Malformed)"
    ~count:300 QCheck.int64
    (fun seed ->
      let rng = Imk_entropy.Prng.create ~seed in
      let note =
        { Note.owner = "IMK-TEST"; note_type = 7; desc = Bytes.make 24 'd' }
      in
      let b = mutate rng (Note.encode note) in
      match Note.decode_kaslr (Note.decode b) with
      | _ -> true
      | exception Types.Malformed _ -> true
      | exception _ -> false)

let () =
  Alcotest.run "imk_elf"
    [
      ( "writer+parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "is_elf" `Quick test_is_elf;
          expect_malformed "truncated header" (fun () ->
              Parser.parse (Bytes.create 10));
          expect_malformed "bad magic" (fun () ->
              Parser.parse (Bytes.make 200 'x'));
          expect_malformed "wrong class" (fun () ->
              let b = Writer.write (sample_image ()) in
              Imk_util.Byteio.set_u8 b 4 1;
              Parser.parse b);
          expect_malformed "sections out of bounds" (fun () ->
              let b = Writer.write (sample_image ()) in
              (* corrupt e_shoff *)
              Imk_util.Byteio.set_addr b 40 (Bytes.length b * 2);
              Parser.parse b);
          Testkit.to_alcotest qcheck_roundtrip;
          Testkit.to_alcotest qcheck_parser_adversarial;
        ] );
      ( "layout+builder",
        [
          Alcotest.test_case "segments derived" `Quick test_segments_derived;
          Alcotest.test_case "nobits file size" `Quick
            test_nobits_breaks_segment_file_size;
          Alcotest.test_case "duplicate section" `Quick
            test_builder_duplicate_section;
          Alcotest.test_case "unknown symbol section" `Quick
            test_builder_unknown_symbol_section;
          Alcotest.test_case "address order" `Quick
            test_builder_out_of_order_addresses;
          Alcotest.test_case "align_up" `Quick test_layout_align_up;
          Alcotest.test_case "assign_offsets" `Quick test_layout_assign_offsets;
          Alcotest.test_case "function sections" `Quick
            test_function_section_recognition;
        ] );
      ( "notes",
        [
          Alcotest.test_case "roundtrip" `Quick test_note_roundtrip;
          Alcotest.test_case "kaslr constants" `Quick test_kaslr_note_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_note_rejects_garbage;
          Alcotest.test_case "kaslr fields of 2^62 or more fail typed" `Quick
            test_kaslr_note_rejects_wide_fields;
          Testkit.to_alcotest qcheck_note_adversarial;
        ] );
      ( "relocations",
        [
          Alcotest.test_case "roundtrip" `Quick test_reloc_roundtrip;
          Alcotest.test_case "empty" `Quick test_reloc_empty;
          Alcotest.test_case "bad magic" `Quick test_reloc_bad_magic;
          Alcotest.test_case "truncated" `Quick test_reloc_truncated;
          Alcotest.test_case "sorted invariant" `Quick test_reloc_invariant;
          Testkit.to_alcotest qcheck_reloc_roundtrip;
          Testkit.to_alcotest qcheck_reloc_adversarial;
        ] );
    ]

open Imk_util

type built = {
  config : Config.t;
  graph : Function_graph.t;
  elf : Imk_elf.Types.t;
  vmlinux : bytes;
  relocs : Imk_elf.Relocation.table;
  relocs_bytes : bytes;
  fn_va : int array;
}

let site_kind_code = function
  | Imk_elf.Relocation.Abs64 -> 0
  | Imk_elf.Relocation.Abs32 -> 1
  | Imk_elf.Relocation.Inv32 -> 2

let site_kind_of_code = function
  | 0 -> Imk_elf.Relocation.Abs64
  | 1 -> Imk_elf.Relocation.Abs32
  | 2 -> Imk_elf.Relocation.Inv32
  | c -> invalid_arg (Printf.sprintf "Image: bad site kind code %d" c)

let rodata_header_bytes = 8
let rodata_entry_bytes = 16
let kallsyms_header_bytes = 16
let kallsyms_entry_bytes = 8
let extab_header_bytes = 8
let extab_entry_bytes = 24
let orc_header_bytes = 8
let orc_entry_bytes = 8

(* deterministic, semi-compressible body filler: a 16-byte motif derived
   from the function id, with every fourth row perturbed *)
let fill_body bytes off len id rng =
  let magic = Function_graph.fn_magic id in
  let motif = Bytes.create 16 in
  for j = 0 to 15 do
    Bytes.set motif j (Char.chr ((magic lsr (j * 3)) land 0xff))
  done;
  for j = 0 to len - 1 do
    let c =
      if j / 16 mod 4 = 3 then Char.chr (Imk_entropy.Prng.next_int rng 256)
      else Bytes.get motif (j mod 16)
    in
    Bytes.set bytes (off + j) c
  done

let encode_fn buf off (f : Function_graph.fn) ~fn_va rng =
  let magic = Function_graph.fn_magic f.id in
  Byteio.set_addr buf off magic;
  Byteio.set_u32 buf (off + 8) f.id;
  Byteio.set_u32 buf (off + 12) (Array.length f.sites);
  Byteio.set_u32 buf (off + 16) (Function_graph.fn_size f);
  Byteio.set_u32 buf (off + 20) 0;
  Array.iteri
    (fun k (site : Function_graph.site) ->
      let sbase = off + Function_graph.fn_header_bytes + (k * Function_graph.site_bytes) in
      Byteio.set_u8 buf sbase (site_kind_code site.kind);
      Byteio.set_u8 buf (sbase + 1) 0;
      Byteio.set_u16 buf (sbase + 2) 0;
      Byteio.set_u32 buf (sbase + 4) site.target;
      let target_va = fn_va.(site.target) in
      let value =
        match site.kind with
        | Imk_elf.Relocation.Abs64 -> target_va
        | Imk_elf.Relocation.Abs32 -> Imk_memory.Addr.low32 target_va
        | Imk_elf.Relocation.Inv32 ->
            Imk_memory.Addr.low32 (Imk_memory.Addr.inverse_base - target_va)
      in
      Byteio.set_addr buf (sbase + 8) value)
    f.sites;
  let body_off =
    off + Function_graph.fn_header_bytes
    + (Array.length f.sites * Function_graph.site_bytes)
  in
  let body_len = off + Function_graph.fn_size f - body_off in
  fill_body buf body_off body_len f.id rng

let build (config : Config.t) =
  let graph = Function_graph.generate config in
  let rng = Imk_entropy.Prng.create ~seed:(Int64.add config.seed 17L) in
  let n = Array.length graph.fns in
  (* assign link-time VAs *)
  let fn_va = Array.make n 0 in
  let text_base = Imk_memory.Addr.link_base in
  let va = ref text_base in
  Array.iteri
    (fun i f ->
      fn_va.(i) <- !va;
      va := !va + Function_graph.fn_size f)
    graph.fns;
  let text_end = !va in
  let builder = Imk_elf.Builder.create () in
  let reloc_abs64 = ref [] and reloc_abs32 = ref [] and reloc_inv32 = ref [] in
  let note_site kind site_va =
    match kind with
    | Imk_elf.Relocation.Abs64 -> reloc_abs64 := site_va :: !reloc_abs64
    | Imk_elf.Relocation.Abs32 -> reloc_abs32 := site_va :: !reloc_abs32
    | Imk_elf.Relocation.Inv32 -> reloc_inv32 := site_va :: !reloc_inv32
  in
  (* text: either one .text or one section per function *)
  if config.fg_sections then
    Array.iteri
      (fun i (f : Function_graph.fn) ->
        let size = Function_graph.fn_size f in
        let data = Bytes.create size in
        encode_fn data 0 f ~fn_va rng;
        Imk_elf.Builder.add_section builder
          ~name:(Printf.sprintf ".text.fn_%05d" i)
          ~sh_type:Imk_elf.Types.sht_progbits
          ~flags:(Imk_elf.Types.shf_alloc lor Imk_elf.Types.shf_execinstr)
          ~addr:fn_va.(i) ~addralign:16 data)
      graph.fns
  else begin
    let data = Bytes.create (text_end - text_base) in
    Array.iteri
      (fun i f -> encode_fn data (fn_va.(i) - text_base) f ~fn_va rng)
      graph.fns;
    Imk_elf.Builder.add_section builder ~name:".text"
      ~sh_type:Imk_elf.Types.sht_progbits
      ~flags:(Imk_elf.Types.shf_alloc lor Imk_elf.Types.shf_execinstr)
      ~addr:text_base ~addralign:4096 data
  end;
  (* record text site relocations *)
  Array.iteri
    (fun i (f : Function_graph.fn) ->
      Array.iteri
        (fun k (site : Function_graph.site) ->
          let site_va =
            fn_va.(i) + Function_graph.fn_header_bytes
            + (k * Function_graph.site_bytes) + 8
          in
          note_site site.kind site_va)
        f.sites)
    graph.fns;
  (* .rodata: function-pointer table *)
  let rodata_va = Imk_memory.Addr.align_up text_end 4096 in
  let nptrs = Array.length graph.rodata_targets in
  let rodata = Bytes.create (rodata_header_bytes + (nptrs * rodata_entry_bytes)) in
  Byteio.set_u32 rodata 0 nptrs;
  Byteio.set_u32 rodata 4 0;
  Array.iteri
    (fun k target ->
      let off = rodata_header_bytes + (k * rodata_entry_bytes) in
      Byteio.set_addr rodata off fn_va.(target);
      Byteio.set_u32 rodata (off + 8) target;
      Byteio.set_u32 rodata (off + 12) 0;
      note_site Imk_elf.Relocation.Abs64 (rodata_va + off))
    graph.rodata_targets;
  Imk_elf.Builder.add_section builder ~name:".rodata"
    ~sh_type:Imk_elf.Types.sht_progbits ~flags:Imk_elf.Types.shf_alloc
    ~addr:rodata_va ~addralign:4096 rodata;
  (* .kallsyms: base + sorted (offset, id) *)
  let kallsyms_va = rodata_va + Bytes.length rodata in
  let kallsyms_va = Imk_memory.Addr.align_up kallsyms_va 64 in
  let kallsyms =
    Bytes.create (kallsyms_header_bytes + (n * kallsyms_entry_bytes))
  in
  (* base is the kmap base — a pure address outside every function
     section, so FGKASLR's displacement leaves it alone and only the
     global delta (applied via its relocation) moves it *)
  Byteio.set_addr kallsyms 0 Imk_memory.Addr.kmap_base;
  Byteio.set_u32 kallsyms 8 n;
  Byteio.set_u32 kallsyms 12 0;
  let by_offset = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare fn_va.(a) fn_va.(b)) by_offset;
  Array.iteri
    (fun k i ->
      let off = kallsyms_header_bytes + (k * kallsyms_entry_bytes) in
      Byteio.set_u32 kallsyms off (fn_va.(i) - Imk_memory.Addr.kmap_base);
      Byteio.set_u32 kallsyms (off + 4) i)
    by_offset;
  note_site Imk_elf.Relocation.Abs64 kallsyms_va;
  Imk_elf.Builder.add_section builder ~name:".kallsyms"
    ~sh_type:Imk_elf.Types.sht_progbits ~flags:Imk_elf.Types.shf_alloc
    ~addr:kallsyms_va ~addralign:64 kallsyms;
  (* .extab: self-relative, sorted by fault VA *)
  let extab_va =
    Imk_memory.Addr.align_up (kallsyms_va + Bytes.length kallsyms) 64
  in
  let extab_entries = Array.copy graph.extab in
  Array.sort
    (fun (a : Function_graph.extab_entry) b ->
      compare (fn_va.(a.fault_fn) + a.fault_off) (fn_va.(b.fault_fn) + b.fault_off))
    extab_entries;
  let nex = Array.length extab_entries in
  let extab = Bytes.create (extab_header_bytes + (nex * extab_entry_bytes)) in
  Byteio.set_u32 extab 0 nex;
  Byteio.set_u32 extab 4 0;
  Array.iteri
    (fun k (e : Function_graph.extab_entry) ->
      let off = extab_header_bytes + (k * extab_entry_bytes) in
      let entry_va = extab_va + off in
      let fault_va = fn_va.(e.fault_fn) + e.fault_off in
      let handler_va = fn_va.(e.handler_fn) in
      Byteio.set_u32 extab off ((fault_va - entry_va) land 0xffffffff);
      Byteio.set_u32 extab (off + 4) ((handler_va - (entry_va + 4)) land 0xffffffff);
      Byteio.set_u32 extab (off + 8) e.fault_fn;
      Byteio.set_u32 extab (off + 12) e.handler_fn;
      Byteio.set_u32 extab (off + 16) e.fault_off;
      Byteio.set_u32 extab (off + 20) 0)
    extab_entries;
  Imk_elf.Builder.add_section builder ~name:".extab"
    ~sh_type:Imk_elf.Types.sht_progbits ~flags:Imk_elf.Types.shf_alloc
    ~addr:extab_va ~addralign:64 extab;
  (* .orc_unwind, optional *)
  let after_extab = extab_va + Bytes.length extab in
  let orc_va = Imk_memory.Addr.align_up after_extab 64 in
  let data_prev_end =
    if not config.unwinder_orc then after_extab
    else begin
      let entries = ref [] in
      Array.iter
        (fun (f : Function_graph.fn) ->
          for k = 0 to config.orc_per_fn - 1 do
            let off =
              Function_graph.fn_header_bytes
              + (k * (max 16 (Function_graph.fn_size f / (config.orc_per_fn + 1))))
            in
            if off < Function_graph.fn_size f then
              entries := (fn_va.(f.id) + off, f.id) :: !entries
          done)
        graph.fns;
      let entries = Array.of_list !entries in
      Array.sort compare entries;
      let norc = Array.length entries in
      let orc = Bytes.create (orc_header_bytes + (norc * orc_entry_bytes)) in
      Byteio.set_u32 orc 0 norc;
      Byteio.set_u32 orc 4 0;
      Array.iteri
        (fun k (ip_va, id) ->
          let off = orc_header_bytes + (k * orc_entry_bytes) in
          let entry_va = orc_va + off in
          Byteio.set_u32 orc off ((ip_va - entry_va) land 0xffffffff);
          Byteio.set_u32 orc (off + 4) id)
        entries;
      Imk_elf.Builder.add_section builder ~name:".orc_unwind"
        ~sh_type:Imk_elf.Types.sht_progbits ~flags:Imk_elf.Types.shf_alloc
        ~addr:orc_va ~addralign:64 orc;
      orc_va + Bytes.length orc
    end
  in
  (* .data: writable filler *)
  let data_va = Imk_memory.Addr.align_up data_prev_end 4096 in
  let data = Bytes.create config.data_bytes in
  fill_body data 0 config.data_bytes 0xDA7A rng;
  Imk_elf.Builder.add_section builder ~name:".data"
    ~sh_type:Imk_elf.Types.sht_progbits
    ~flags:(Imk_elf.Types.shf_alloc lor Imk_elf.Types.shf_write)
    ~addr:data_va ~addralign:4096 data;
  (* .bss *)
  let bss_va = Imk_memory.Addr.align_up (data_va + config.data_bytes) 4096 in
  Imk_elf.Builder.add_section builder ~name:".bss"
    ~sh_type:Imk_elf.Types.sht_nobits
    ~flags:(Imk_elf.Types.shf_alloc lor Imk_elf.Types.shf_write)
    ~addr:bss_va ~addralign:4096 ~mem_size:config.bss_bytes (Bytes.create 0);
  (* the §4.3 proposal: kernel constants as an ELF note, so the monitor
     need not hardcode them *)
  let note =
    Imk_elf.Note.encode
      (Imk_elf.Note.encode_kaslr
         {
           Imk_elf.Note.phys_start = Imk_memory.Addr.default_phys_load;
           phys_align = Imk_memory.Addr.kernel_align;
           kmap_base = Imk_memory.Addr.kmap_base;
           image_size_max = Imk_memory.Addr.kaslr_max_offset;
         })
  in
  Imk_elf.Builder.add_section builder ~name:Imk_elf.Note.section_name
    ~sh_type:Imk_elf.Types.sht_note ~flags:0 ~addr:0 ~addralign:4 note;
  (* symbols: one per function *)
  Array.iteri
    (fun i (f : Function_graph.fn) ->
      let section =
        if config.fg_sections then Printf.sprintf ".text.fn_%05d" i else ".text"
      in
      Imk_elf.Builder.add_symbol builder
        ~name:(Printf.sprintf "fn_%05d" i)
        ~value:fn_va.(i) ~size:(Function_graph.fn_size f)
        ~sym_type:Imk_elf.Types.stt_func ~section)
    graph.fns;
  Imk_elf.Builder.set_entry builder fn_va.(0);
  let phys_of_vaddr va = va - Imk_memory.Addr.kmap_base in
  let elf = Imk_elf.Builder.finalize builder ~phys_of_vaddr in
  let vmlinux = Imk_elf.Writer.write elf in
  let relocs =
    if not config.relocatable then Imk_elf.Relocation.empty
    else begin
      let sorted l = Array.of_list (List.sort_uniq compare l) in
      {
        Imk_elf.Relocation.abs64 = sorted !reloc_abs64;
        abs32 = sorted !reloc_abs32;
        inv32 = sorted !reloc_inv32;
      }
    end
  in
  {
    config;
    graph;
    elf;
    vmlinux;
    relocs;
    relocs_bytes = Imk_elf.Relocation.encode relocs;
    fn_va;
  }

let modeled_vmlinux_bytes b =
  Config.modeled_of_actual b.config (Bytes.length b.vmlinux)

let modeled_reloc_bytes b =
  Config.modeled_of_actual b.config (Bytes.length b.relocs_bytes)

let modeled_sections b =
  Config.modeled_of_actual b.config (Array.length b.elf.Imk_elf.Types.sections)

open Imk_util

type kernel_info = {
  link_entry_va : int;
  link_rodata_va : int;
  link_kallsyms_va : int;
  link_extab_va : int;
  link_orc_va : int option;
  n_functions : int;
  modeled_functions : int;
}

let section_va (built : Imk_kernel.Image.built) name =
  match Imk_elf.Types.section_by_name built.elf name with
  | Some s -> s.addr
  | None -> invalid_arg ("Boot_params: image has no " ^ name ^ " section")

let kernel_info_of_built (built : Imk_kernel.Image.built) =
  {
    link_entry_va = built.elf.Imk_elf.Types.entry;
    link_rodata_va = section_va built ".rodata";
    link_kallsyms_va = section_va built ".kallsyms";
    link_extab_va = section_va built ".extab";
    link_orc_va =
      Option.map
        (fun (s : Imk_elf.Types.section) -> s.addr)
        (Imk_elf.Types.section_by_name built.elf ".orc_unwind");
    n_functions = Array.length built.graph.Imk_kernel.Function_graph.fns;
    modeled_functions =
      Imk_kernel.Config.modeled_of_actual built.config
        (Array.length built.graph.Imk_kernel.Function_graph.fns);
  }

let elf_section_va (elf : Imk_elf.Types.t) name =
  match Imk_elf.Types.section_by_name elf name with
  | Some s -> s.addr
  | None -> invalid_arg ("Boot_params: image has no " ^ name ^ " section")

let kernel_info_of_elf (elf : Imk_elf.Types.t) (config : Imk_kernel.Config.t) =
  let n_functions =
    Array.fold_left
      (fun acc (s : Imk_elf.Types.symbol) ->
        if s.sym_type = Imk_elf.Types.stt_func then acc + 1 else acc)
      0 elf.symbols
  in
  {
    link_entry_va = elf.entry;
    link_rodata_va = elf_section_va elf ".rodata";
    link_kallsyms_va = elf_section_va elf ".kallsyms";
    link_extab_va = elf_section_va elf ".extab";
    link_orc_va =
      Option.map
        (fun (s : Imk_elf.Types.section) -> s.addr)
        (Imk_elf.Types.section_by_name elf ".orc_unwind");
    n_functions;
    modeled_functions = Imk_kernel.Config.modeled_of_actual config n_functions;
  }

type t = {
  phys_load : int;
  virt_base : int;
  entry_va : int;
  mem_bytes : int;
  kernel : kernel_info;
  kallsyms_fixed : bool;
  orc_fixed : bool;
  setup_data_pa : int option;
}

let delta t = t.virt_base - Imk_memory.Addr.link_base
let va_to_pa t va = va - t.virt_base + t.phys_load

let default_setup_data_pa = 0x90000
let setup_magic = 0x53455455 (* "SETU" *)

(* the one encoder: [n] entries, entry [k] read through the three
   accessors, so neither caller builds a tuple per entry *)
let encode n ~old_va ~new_va ~size =
  let out = Bytes.create (8 + (n * 24)) in
  Byteio.set_u32 out 0 setup_magic;
  Byteio.set_u32 out 4 n;
  for k = 0 to n - 1 do
    let off = 8 + (k * 24) in
    Byteio.set_addr out off (old_va k);
    Byteio.set_addr out (off + 8) (new_va k);
    Byteio.set_u32 out (off + 16) (size k);
    Byteio.set_u32 out (off + 20) 0
  done;
  out

let setup_data_encode pairs =
  encode (Array.length pairs)
    ~old_va:(fun k ->
      let o, _, _ = pairs.(k) in
      o)
    ~new_va:(fun k ->
      let _, nv, _ = pairs.(k) in
      nv)
    ~size:(fun k ->
      let _, _, s = pairs.(k) in
      s)

let setup_data_of_plan (p : Imk_randomize.Fgkaslr.plan) =
  encode p.count
    ~old_va:(fun k -> p.old_va.(p.order.(k)))
    ~new_va:(fun k -> p.new_va.(p.order.(k)))
    ~size:(fun k -> p.size.(p.order.(k)))

let setup_data_decode b =
  if Bytes.length b < 8 || Byteio.get_u32 b 0 <> setup_magic then
    invalid_arg "Boot_params.setup_data_decode: bad blob";
  let n = Byteio.get_u32 b 4 in
  if Bytes.length b < 8 + (n * 24) then
    invalid_arg "Boot_params.setup_data_decode: truncated blob";
  Array.init n (fun k ->
      let off = 8 + (k * 24) in
      (Byteio.get_addr b off, Byteio.get_addr b (off + 8), Byteio.get_u32 b (off + 16)))

let setup_data_read mem ~pa =
  let header = Imk_memory.Guest_mem.read_bytes mem ~pa ~len:8 in
  if Byteio.get_u32 header 0 <> setup_magic then
    invalid_arg "Boot_params.setup_data_read: bad blob";
  let n = Byteio.get_u32 header 4 in
  setup_data_decode (Imk_memory.Guest_mem.read_bytes mem ~pa ~len:(8 + (n * 24)))

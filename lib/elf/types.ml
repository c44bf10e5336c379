exception Malformed of string

let elf_magic = "\x7fELF"
let elfclass64 = 2
let elfdata2lsb = 1
let et_exec = 2
let em_x86_64 = 62
let sht_progbits = 1
let sht_symtab = 2
let sht_strtab = 3
let sht_nobits = 8
let sht_note = 7
let shf_write = 1
let shf_alloc = 2
let shf_execinstr = 4
let pt_load = 1
let pf_x = 1
let pf_w = 2
let pf_r = 4
let ehdr_size = 64
let phdr_size = 56
let shdr_size = 64
let sym_size = 24
let stt_func = 2
let stt_object = 1

type section = {
  name : string;
  sh_type : int;
  flags : int;
  addr : int;
  offset : int;
  size : int;
  addralign : int;
  entsize : int;
  data : bytes;
}

type segment = {
  p_type : int;
  p_flags : int;
  p_offset : int;
  p_vaddr : int;
  p_paddr : int;
  p_filesz : int;
  p_memsz : int;
  p_align : int;
}

type symbol = {
  sym_name : string;
  value : int;
  sym_size : int;
  sym_type : int;
  shndx : int;
}

type t = {
  entry : int;
  sections : section array;
  segments : segment array;
  symbols : symbol array;
}

let section_by_name t name =
  Array.find_opt (fun s -> s.name = name) t.sections

let section_index t name =
  let found = ref None in
  Array.iteri
    (fun i s -> if s.name = name && !found = None then found := Some i)
    t.sections;
  !found

let is_function_section s =
  String.length s.name > 6 && String.sub s.name 0 6 = ".text."

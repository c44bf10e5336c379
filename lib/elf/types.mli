(** ELF64 object model.

    The synthetic kernels are real ELF64 files: a 64-byte header, program
    headers describing PT_LOAD segments, section data, a symbol table with
    string tables, and section headers — everything the monitor and the
    bootstrap loader parse when loading a kernel. Constants follow the
    ELF64 specification (only the subset exercised by kernel images is
    modelled). *)

exception Malformed of string
(** The one typed error for structurally bad ELF input, shared by every
    [Imk_elf] decoder ({!Parser}, {!Note}): bad magic, wrong class,
    truncated tables, out-of-range offsets, inconsistent note sizes. A
    malformed image must never surface as a raw [Invalid_argument] — the
    boot-failure taxonomy ([Imk_fault.Failure]) classifies this
    exception, and unclassified escapes are a bug. *)

(** {1 Constants} *)

val elf_magic : string
(** ["\x7fELF"]. *)

val elfclass64 : int
val elfdata2lsb : int
val et_exec : int
val em_x86_64 : int

val sht_progbits : int
val sht_symtab : int
val sht_strtab : int
val sht_nobits : int
val sht_note : int

val shf_write : int
val shf_alloc : int
val shf_execinstr : int

val pt_load : int

val pf_x : int
val pf_w : int
val pf_r : int

val ehdr_size : int
val phdr_size : int
val shdr_size : int
val sym_size : int

val stt_func : int
val stt_object : int

(** {1 Structures} *)

type section = {
  name : string;
  sh_type : int;
  flags : int;
  addr : int;  (** link-time virtual address (0 for non-alloc) *)
  offset : int;  (** file offset of the data *)
  size : int;  (** in-memory size; equals [Bytes.length data] except NOBITS *)
  addralign : int;
  entsize : int;
  data : bytes;  (** empty for SHT_NOBITS *)
}

type segment = {
  p_type : int;
  p_flags : int;
  p_offset : int;
  p_vaddr : int;
  p_paddr : int;  (** physical load address *)
  p_filesz : int;
  p_memsz : int;
  p_align : int;
}

type symbol = {
  sym_name : string;
  value : int;  (** virtual address *)
  sym_size : int;
  sym_type : int;  (** {!stt_func} or {!stt_object} *)
  shndx : int;  (** index into [sections]; [-1] = SHN_ABS/UNDEF *)
}

type t = {
  entry : int;  (** entry point virtual address (startup_64) *)
  sections : section array;
      (** user sections only; the NULL section and the symbol/string-table
          sections are materialized by the writer and stripped by the
          parser *)
  segments : segment array;
  symbols : symbol array;
}

val section_by_name : t -> string -> section option
(** [section_by_name t name] finds the first section named [name]. *)

val section_index : t -> string -> int option
(** [section_index t name] is its index in [t.sections]. *)

val is_function_section : section -> bool
(** [is_function_section s] recognizes the [.text.<fn>] sections produced
    by -ffunction-sections builds — the randomization unit of FGKASLR. *)

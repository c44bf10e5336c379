open Imk_memory

exception Load_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Load_error s)) fmt

let fn_sections (elf : Imk_elf.Types.t) =
  let secs =
    Array.to_list elf.sections
    |> List.filter Imk_elf.Types.is_function_section
    |> List.map (fun (s : Imk_elf.Types.section) -> (s.addr, s.size))
    |> List.sort (fun (va_a, sz_a) (va_b, sz_b) ->
           match Int.compare va_a va_b with
           | 0 -> Int.compare sz_a sz_b
           | c -> c)
  in
  Array.of_list secs

let alloc_sections (elf : Imk_elf.Types.t) =
  Array.to_list elf.sections
  |> List.filter (fun (s : Imk_elf.Types.section) ->
         s.flags land Imk_elf.Types.shf_alloc <> 0)

let image_memsz elf =
  List.fold_left
    (fun acc (s : Imk_elf.Types.section) -> max acc (s.addr + s.size - Addr.link_base))
    0 (alloc_sections elf)

let text_bytes elf =
  List.fold_left
    (fun acc (s : Imk_elf.Types.section) ->
      if s.flags land Imk_elf.Types.shf_execinstr <> 0 then acc + s.size else acc)
    0 (alloc_sections elf)

let place_list mem sections ~phys_load ~plan =
  (* the function sections come in file order, which is link order, so
     one cursor maps them all in O(1) each *)
  let m = Option.map Fgkaslr.mapper plan in
  List.iter
    (fun (s : Imk_elf.Types.section) ->
      let va' = match m with None -> s.addr | Some m -> Fgkaslr.map m s.addr in
      let pa = phys_load + (va' - Addr.link_base) in
      if pa < 0 || pa + s.size > Guest_mem.size mem then
        fail "section %s does not fit at pa %#x" s.name pa;
      if s.sh_type = Imk_elf.Types.sht_nobits then Guest_mem.zero mem ~pa ~len:s.size
      else Guest_mem.write_bytes mem ~pa s.data)
    sections

let place mem elf ~phys_load ~plan =
  place_list mem (alloc_sections elf) ~phys_load ~plan

type preset = Lupine | Aws | Ubuntu
type variant = Nokaslr | Kaslr | Fgkaslr

let preset_name = function Lupine -> "lupine" | Aws -> "aws" | Ubuntu -> "ubuntu"

let variant_name = function
  | Nokaslr -> "nokaslr"
  | Kaslr -> "kaslr"
  | Fgkaslr -> "fgkaslr"

let all_presets = [ Lupine; Aws; Ubuntu ]
let all_variants = [ Nokaslr; Kaslr; Fgkaslr ]

let kernel_name preset variant = preset_name preset ^ "-" ^ variant_name variant

let kernel_names =
  List.concat_map
    (fun p -> List.map (fun v -> (kernel_name p v, (p, v))) all_variants)
    all_presets

type t = {
  name : string;
  preset : preset;
  variant : variant;
  relocatable : bool;
  fg_sections : bool;
  unwinder_orc : bool;
  scale : int;
  functions : int;
  avg_fn_body : int;
  avg_call_sites : int;
  rodata_ptrs : int;
  data_bytes : int;
  bss_bytes : int;
  extab_entries : int;
  orc_per_fn : int;
  linux_boot_ms : float;
  memmap_ms_per_gib : float;
  seed : int64;
}

let kib = Imk_util.Units.kib

(* Per-preset shape parameters, calibrated so that at the default scale of
   16 the images model Table 1's sizes (Lupine 20M, AWS 39M, Ubuntu 45M)
   and Figure 9's Linux Boot times. *)
let preset_params = function
  | Lupine ->
      (`Functions 1200, `Body 480, `Sites 2, `Ptrs 400, `Data (kib 128),
       `Bss (kib 256), `Extab 60, `BootMs 8.5)
  | Aws ->
      (`Functions 2600, `Body 560, `Sites 3, `Ptrs 900, `Data (kib 280),
       `Bss (kib 512), `Extab 130, `BootMs 45.)
  | Ubuntu ->
      (* distribution kernels carry far more functions than microVM
         configs, which is what makes their FGKASLR cost grow
         super-linearly in Figure 9 *)
      (`Functions 5600, `Body 600, `Sites 3, `Ptrs 1200, `Data (kib 320),
       `Bss (kib 640), `Extab 160, `BootMs 152.)

let seed_of_name name =
  Int64.of_int (Imk_util.Crc.crc32_string name)

let make ?(scale = 16) ?seed preset variant =
  let name = kernel_name preset variant in
  let ( `Functions functions, `Body avg_fn_body, `Sites base_sites,
        `Ptrs rodata_ptrs, `Data data_bytes, `Bss bss_bytes,
        `Extab extab_entries, `BootMs linux_boot_ms ) =
    preset_params preset
  in
  (* -ffunction-sections builds emit extra relocations (per-section
     references), reflected in Table 1's larger fgkaslr relocs files *)
  let avg_call_sites =
    if variant = Fgkaslr then base_sites + 2 else base_sites
  in
  {
    name;
    preset;
    variant;
    relocatable = variant <> Nokaslr;
    fg_sections = variant = Fgkaslr;
    unwinder_orc = false;
    scale;
    functions;
    avg_fn_body;
    avg_call_sites;
    rodata_ptrs;
    data_bytes;
    bss_bytes;
    extab_entries;
    orc_per_fn = 2;
    linux_boot_ms;
    memmap_ms_per_gib = 10.;
    seed = (match seed with Some s -> s | None -> seed_of_name name);
  }

let all ?scale () =
  List.concat_map
    (fun p -> List.map (fun v -> make ?scale p v) all_variants)
    all_presets

let modeled_of_actual t n = n * t.scale

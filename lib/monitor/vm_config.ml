type flavor = Baseline | Bzimage_support | In_monitor_kaslr | In_monitor_fgkaslr

let flavor_name = function
  | Baseline -> "firecracker-baseline"
  | Bzimage_support -> "firecracker-bzimage"
  | In_monitor_kaslr -> "firecracker-kaslr"
  | In_monitor_fgkaslr -> "firecracker-fgkaslr"

type rando_mode = Rando_off | Rando_kaslr | Rando_fgkaslr

let rando_of_variant = function
  | Imk_kernel.Config.Nokaslr -> Rando_off
  | Imk_kernel.Config.Kaslr -> Rando_kaslr
  | Imk_kernel.Config.Fgkaslr -> Rando_fgkaslr

let rando_flags =
  [ ("off", Rando_off); ("kaslr", Rando_kaslr); ("fgkaslr", Rando_fgkaslr) ]

type kallsyms_policy = Kallsyms_eager | Kallsyms_deferred
type orc_policy = Orc_update | Orc_skip
type protocol = Linux64 | Pvh
type loader_policy = Loader_default | Loader_stripped

type t = {
  flavor : flavor;
  profile : Profiles.t;
  kernel_path : string;
  relocs_path : string option;
  kernel_config : Imk_kernel.Config.t;
  mem_bytes : int;
  rando : rando_mode;
  kallsyms : kallsyms_policy;
  orc : orc_policy;
  protocol : protocol;
  loader : loader_policy;
  boot_args : string;
  initrd_path : string option;
  devices : Devices.t list;
  seed : int64;
}

let make ?flavor ?(profile = Profiles.firecracker) ?(relocs_path = None)
    ?(mem_bytes = 256 * 1024 * 1024) ?(rando = Rando_off)
    ?(kallsyms = Kallsyms_eager) ?(orc = Orc_skip) ?(protocol = Linux64)
    ?(loader = Loader_default)
    ?(boot_args = "console=ttyS0 reboot=k panic=1 pci=off")
    ?(initrd_path = None) ?(devices = []) ?(seed = 1L) ~kernel_path
    ~kernel_config () =
  let flavor =
    match flavor with
    | Some f -> f
    | None -> (
        match rando with
        | Rando_off -> Baseline
        | Rando_kaslr -> In_monitor_kaslr
        | Rando_fgkaslr -> In_monitor_fgkaslr)
  in
  {
    flavor;
    profile;
    kernel_path;
    relocs_path;
    kernel_config;
    mem_bytes;
    rando;
    kallsyms;
    orc;
    protocol;
    loader;
    boot_args;
    initrd_path;
    devices;
    seed;
  }

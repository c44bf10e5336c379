type images = {
  cfg : Imk_kernel.Config.t;
  vmlinux : bytes;
  relocs : bytes;
  bz_name : string;
  bz_bytes : bytes;
}

let build ?(scale = 4) (point : Point.t) =
  let cfg =
    { (Imk_kernel.Config.make ~scale point.Point.preset point.Point.variant) with
      Imk_kernel.Config.functions = point.Point.functions }
  in
  let built = Imk_kernel.Image.build cfg in
  let codec, bz_variant = Imk_kernel.Bzimage.of_method point.Point.codec in
  let bz = Imk_kernel.Bzimage.link built ~codec ~variant:bz_variant in
  let bz_name =
    Printf.sprintf "%s.bz-%s" cfg.Imk_kernel.Config.name point.Point.codec
  in
  {
    cfg;
    vmlinux = built.Imk_kernel.Image.vmlinux;
    relocs = built.Imk_kernel.Image.relocs_bytes;
    bz_name;
    bz_bytes = Imk_kernel.Bzimage.encode bz;
  }

type t = {
  images : images;
  cache : Imk_storage.Page_cache.t;
  vmlinux_path : string;
  relocs_path : string;
  bz_path : string;
}

let instantiate images =
  let disk = Imk_storage.Disk.create () in
  let name = images.cfg.Imk_kernel.Config.name in
  let vmlinux_path = name ^ ".vmlinux" and relocs_path = name ^ ".relocs" in
  Imk_storage.Disk.add disk ~name:vmlinux_path images.vmlinux;
  Imk_storage.Disk.add disk ~name:relocs_path images.relocs;
  Imk_storage.Disk.add disk ~name:images.bz_name images.bz_bytes;
  {
    images;
    cache = Imk_storage.Page_cache.create disk;
    vmlinux_path;
    relocs_path;
    bz_path = images.bz_name;
  }

let rando (point : Point.t) =
  Imk_monitor.Vm_config.rando_of_variant point.Point.variant

(* both configs use the top-rank flavor (it implements every capability)
   and identical policies, so any layout difference between the two boots
   is the code under test, not configuration skew *)
let vm_config t point ~kernel_path ~relocs_path =
  Imk_monitor.Vm_config.make ~flavor:Imk_monitor.Vm_config.In_monitor_fgkaslr
    ~rando:(rando point) ~relocs_path
    ~kallsyms:Imk_monitor.Vm_config.Kallsyms_eager
    ~orc:Imk_monitor.Vm_config.Orc_skip
    ~loader:Imk_monitor.Vm_config.Loader_default
    ~mem_bytes:(64 * 1024 * 1024)
    ~seed:point.Point.seed ~kernel_path ~kernel_config:t.images.cfg ()

let direct_config t point =
  let relocs_path =
    if rando point = Imk_monitor.Vm_config.Rando_off then None
    else Some t.relocs_path
  in
  vm_config t point ~kernel_path:t.vmlinux_path ~relocs_path

let bz_config t point = vm_config t point ~kernel_path:t.bz_path ~relocs_path:None

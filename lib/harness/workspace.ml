open Imk_kernel

type run_config = {
  jobs : int;
  contend : int * int;
  trace : (Imk_vclock.Trace.t -> unit) option;
  requests : int option;
}

let default_run =
  { jobs = 1; contend = (1, 1); trace = None; requests = None }

type t = {
  disk : Imk_storage.Disk.t;
  cache : Imk_storage.Page_cache.t;
  arena : Imk_memory.Arena.t;
  plans : Imk_monitor.Plan_cache.t option;
  scale : int;
  functions_override : int option;
  run : run_config;
  builds : (string, Image.built) Hashtbl.t;
  bzimages : (string, unit) Hashtbl.t;
}

let create ?(scale = 16) ?functions_override ?(plan_cache = true)
    ?(run = default_run) () =
  let disk = Imk_storage.Disk.create () in
  {
    disk;
    cache = Imk_storage.Page_cache.create disk;
    arena = Imk_memory.Arena.create ();
    plans = (if plan_cache then Some (Imk_monitor.Plan_cache.create ()) else None);
    scale;
    functions_override;
    run;
    builds = Hashtbl.create 16;
    bzimages = Hashtbl.create 16;
  }

let run_config t = t.run
let disk t = t.disk
let scale t = t.scale
let cache t = t.cache
let arena t = t.arena
let plans t = t.plans

let config t preset variant =
  let base = Config.make ~scale:t.scale preset variant in
  match t.functions_override with
  | None -> base
  | Some functions -> { base with Config.functions }

let key = Config.kernel_name

let built t preset variant =
  let k = key preset variant in
  match Hashtbl.find_opt t.builds k with
  | Some b -> b
  | None ->
      let b = Image.build (config t preset variant) in
      Hashtbl.add t.builds k b;
      Imk_storage.Disk.add t.disk ~name:(k ^ ".vmlinux") b.Image.vmlinux;
      Imk_storage.Disk.add t.disk ~name:(k ^ ".relocs") b.Image.relocs_bytes;
      b

(* path accessors build on demand so a path is always backed by a disk
   image *)
let vmlinux_path t preset variant =
  ignore (built t preset variant);
  key preset variant ^ ".vmlinux"

let relocs_path t preset variant =
  ignore (built t preset variant);
  key preset variant ^ ".relocs"

let bzimage_path t preset variant ~codec ~bz =
  let name =
    Printf.sprintf "%s.bzimage-%s-%s" (key preset variant) codec
      (Bzimage.variant_name bz)
  in
  if not (Hashtbl.mem t.bzimages name) then begin
    let b = built t preset variant in
    let image = Bzimage.link b ~codec ~variant:bz in
    Imk_storage.Disk.add t.disk ~name (Bzimage.encode image);
    Hashtbl.add t.bzimages name ()
  end;
  name

(* VM templates: boots overwrite the seed. A direct boot passes the
   relocation file only when the monitor randomizes; a bzImage boot runs
   on the top-rank flavor, which implements every capability *)
let direct_vm t preset variant ~rando
    ?(kallsyms = Imk_monitor.Vm_config.Kallsyms_eager)
    ?(profile = Imk_monitor.Profiles.firecracker) ?(mem = 256 * 1024 * 1024) () =
  let need_relocs = rando <> Imk_monitor.Vm_config.Rando_off in
  Imk_monitor.Vm_config.make ~rando ~profile ~mem_bytes:mem ~kallsyms
    ~relocs_path:
      (if need_relocs then Some (relocs_path t preset variant) else None)
    ~kernel_path:(vmlinux_path t preset variant)
    ~kernel_config:(config t preset variant)
    ()

let bz_vm t preset variant ~meth ~rando
    ?(loader = Imk_monitor.Vm_config.Loader_stripped)
    ?(profile = Imk_monitor.Profiles.firecracker) ?(mem = 256 * 1024 * 1024) () =
  let codec, bz = Bzimage.of_method meth in
  let path = bzimage_path t preset variant ~codec ~bz in
  Imk_monitor.Vm_config.make ~flavor:Imk_monitor.Vm_config.In_monitor_fgkaslr
    ~rando ~profile ~mem_bytes:mem ~loader ~kernel_path:path
    ~kernel_config:(config t preset variant)
    ()

let warm_all t =
  List.iter
    (fun name -> Imk_storage.Page_cache.warm t.cache name)
    (Imk_storage.Disk.names t.disk)

open Imk_kernel

type run_config = {
  jobs : int;
  contend : int * int;
  trace : (Imk_vclock.Trace.t -> unit) option;
  mutate : bool;
  requests : int option;
}

let default_run =
  { jobs = 1; contend = (1, 1); trace = None; mutate = false; requests = None }

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

let key preset variant =
  Config.preset_name preset ^ "-" ^ Config.variant_name variant

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

let warm_all t =
  List.iter
    (fun name -> Imk_storage.Page_cache.warm t.cache name)
    (Imk_storage.Disk.names t.disk)
